package experiment

import (
	"context"
	"math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/counters"
	"repro/internal/surrogate"
)

// TestSurrogateReducesExactSims is the tentpole acceptance criterion: at
// TestScale the surrogate must cut the search's exact simulations
// (repro_sims_exact) by at least 2x while the dataset keeps the shapes
// the downstream experiments rely on.
func TestSurrogateReducesExactSims(t *testing.T) {
	sc := TestScale()

	before := SearchSimCount()
	off, err := Build(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	offSims := SearchSimCount() - before

	before = SearchSimCount()
	on, err := Build(context.Background(), sc, WithSurrogate(surrogate.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	onSims := SearchSimCount() - before

	if offSims == 0 || onSims == 0 {
		t.Fatalf("search sims off=%d on=%d: counter not advancing", offSims, onSims)
	}
	if 2*onSims > offSims {
		t.Errorf("surrogate search sims = %d, plain = %d: reduction %.2fx < 2x",
			onSims, offSims, float64(offSims)/float64(onSims))
	}
	sum := on.SurrogateSummary()
	if sum == nil {
		t.Fatal("surrogate build has no summary")
	}
	if sum.Exact != onSims {
		t.Errorf("summary.Exact = %d, counter delta = %d", sum.Exact, onSims)
	}
	if sum.Pruned == 0 || sum.Audited == 0 {
		t.Errorf("pruned=%d audited=%d: surrogate never pruned or never audited", sum.Pruned, sum.Audited)
	}
	if off.SurrogateSummary() != nil {
		t.Error("plain build reports a surrogate summary")
	}

	// Shape invariants the EXPERIMENTS.md comparisons rest on.
	for _, id := range on.Phases {
		if _, ok := on.Best[id]; !ok {
			t.Fatalf("%s has no best", id)
		}
		if len(on.Good[id]) == 0 {
			t.Errorf("%s has an empty good set", id)
		}
		if len(on.SampleSpace(id)) >= len(off.SampleSpace(id)) {
			t.Errorf("%s: surrogate sample space (%d) not smaller than plain (%d)",
				id, len(on.SampleSpace(id)), len(off.SampleSpace(id)))
		}
	}
	foundStatic := false
	for _, cfg := range on.SharedConfigs {
		if cfg == on.BestStatic {
			foundStatic = true
		}
	}
	if !foundStatic {
		t.Error("surrogate BestStatic not in the shared pool")
	}

	// The full downstream pipeline (LOOCV + suite) must hold the paper's
	// orderings: per-program static between best static and the oracle.
	ev, err := on.EvaluateModel(counters.Basic)
	if err != nil {
		t.Fatal(err)
	}
	rep := on.Suite(ev, ev)
	for _, row := range rep.Rows {
		if row.PerProgram < 1-1e-9 {
			t.Errorf("%s: per-program %f < 1 (best-static anchor lost)", row.Program, row.PerProgram)
		}
		if row.Oracle < row.PerProgram-1e-9 {
			t.Errorf("%s: oracle %f < per-program %f", row.Program, row.Oracle, row.PerProgram)
		}
	}
}

// TestSurrogateEstimatesStayOutOfSample guards the in-sample discipline:
// everything the surrogate build exposes as a sample-space member must be
// backed by a real simulator result, and the good sets must be drawn from
// the sample space.
func TestSurrogateEstimatesStayOutOfSample(t *testing.T) {
	sc := TestScale()
	sc.Programs = []string{"mcf", "swim"}
	ds, err := Build(context.Background(), sc, WithSurrogate(surrogate.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ds.Phases {
		space := map[arch.Config]bool{}
		for _, cfg := range ds.SampleSpace(id) {
			e := ds.results[id][cfg]
			if e == nil || e.res == nil {
				t.Fatalf("%s: in-sample config without an exact result", id)
			}
			if !(e.res.Efficiency > 0) {
				t.Errorf("%s: in-sample result with non-positive efficiency", id)
			}
			space[cfg] = true
		}
		for _, cfg := range ds.Good[id] {
			if !space[cfg] {
				t.Errorf("%s: good config %v not in the sample space", id, cfg)
			}
		}
	}
}

// TestPickAuditDeterministicPerSeed pins the audit draw: the same seed
// must select the same slice, and the draw must stay inside the pool.
func TestPickAuditDeterministicPerSeed(t *testing.T) {
	pool := []int{3, 1, 4, 1, 5, 9, 2, 6, 8, 7}
	a := pickAudit(rand.New(rand.NewPCG(11, 0xa0d17ca11)), pool, 3)
	b := pickAudit(rand.New(rand.NewPCG(11, 0xa0d17ca11)), pool, 3)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed picked %v then %v", a, b)
	}
	if len(a) != 3 {
		t.Fatalf("picked %d, want 3", len(a))
	}
	in := map[int]bool{}
	for _, v := range pool {
		in[v] = true
	}
	for _, v := range a {
		if !in[v] {
			t.Errorf("picked %d not in pool", v)
		}
	}
	if got := pickAudit(rand.New(rand.NewPCG(1, 2)), pool, 99); len(got) != len(pool) {
		t.Errorf("overdraw returned %d elements, want the whole pool", len(got))
	}
}
