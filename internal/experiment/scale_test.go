package experiment

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/surrogate"
)

// TestScaleBudget pins the per-phase candidate counts each preset implies
// — the budget every cost estimate (and the surrogate's reduction claim)
// is stated against.
func TestScaleBudget(t *testing.T) {
	cases := []struct {
		name string
		sc   Scale
		want SearchBudget
	}{
		{"test", TestScale(), SearchBudget{Uniform: 10, Local: 4, Sweep: 0}},
		{"default", DefaultScale(), SearchBudget{Uniform: 36, Local: 10, Sweep: 34}},
		{"zero-defaults", Scale{}, SearchBudget{Uniform: 16, Local: 0, Sweep: 0}},
		{
			"custom-sweeps",
			Scale{UniformSamples: 5, LocalSamples: 2, SweepParams: []arch.Param{arch.Width, arch.LSQSize}},
			SearchBudget{Uniform: 5, Local: 2, Sweep: arch.DomainSize(arch.Width) + arch.DomainSize(arch.LSQSize)},
		},
	}
	for _, tc := range cases {
		got := tc.sc.Budget()
		if got != tc.want {
			t.Errorf("%s: Budget() = %+v, want %+v", tc.name, got, tc.want)
		}
		if got.PerPhase() != got.Uniform+got.Local+got.Sweep {
			t.Errorf("%s: PerPhase() = %d, want the stage sum", tc.name, got.PerPhase())
		}
	}
	// DefaultScale's sweep budget must track the parameter domains it names.
	want := 0
	for _, p := range DefaultScale().SweepParams {
		want += arch.DomainSize(p)
	}
	if got := DefaultScale().Budget().Sweep; got != want {
		t.Errorf("default sweep budget = %d, want %d", got, want)
	}
}

// TestSurrogateSlicesRespectBudget asserts that for every stage batch a
// scale can produce, the surrogate's shortlist and audit slices fit
// inside the batch (never inflating the exact-simulation budget) and
// that the audit selection is deterministic per seed.
func TestSurrogateSlicesRespectBudget(t *testing.T) {
	cfg := surrogate.DefaultConfig()
	for _, sc := range []Scale{TestScale(), DefaultScale(), {}} {
		b := sc.Budget()
		batches := []int{b.Uniform, b.Local}
		for _, p := range sc.withDefaults().SweepParams {
			batches = append(batches, arch.DomainSize(p))
		}
		for _, n := range batches {
			k := cfg.ShortlistSize(n)
			a := cfg.AuditSize(n - k)
			if n > 0 && (k < 1 || k > n) {
				t.Errorf("batch %d: shortlist %d outside [1, n]", n, k)
			}
			if a < 0 || a > n-k {
				t.Errorf("batch %d: audit %d outside [0, pruned]", n, a)
			}
			if k+a > n {
				t.Errorf("batch %d: shortlist %d + audit %d exceeds the batch", n, k, a)
			}
			if n > 0 && k+a >= n && n > 2*cfg.MinKeep+2 {
				t.Errorf("batch %d: shortlist %d + audit %d leaves nothing to prune", n, k, a)
			}
		}
	}

	// Deterministic per seed: the same seed draws the same audit slice
	// from the same pruned pool; the slice always stays inside the pool.
	pool := make([]int, 28)
	for i := range pool {
		pool[i] = i
	}
	for _, seed := range []uint64{1, 2010, 0xfeed} {
		k := surrogate.DefaultConfig().AuditSize(len(pool))
		a := pickAudit(rand.New(rand.NewPCG(seed, 0xa0d17ca11)), pool, k)
		b := pickAudit(rand.New(rand.NewPCG(seed, 0xa0d17ca11)), pool, k)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("seed %d: audit slice not deterministic: %v vs %v", seed, a, b)
		}
		if len(a) != k {
			t.Errorf("seed %d: audit slice size %d, want %d", seed, len(a), k)
		}
	}
}

// TestPhaseIDsOrder pins the canonical phase order Build searches and
// profiles in: programs in Scale order, phases 0..PhasesPerProgram-1
// within each.
func TestPhaseIDsOrder(t *testing.T) {
	sc := TestScale()
	ids := sc.PhaseIDs()
	if len(ids) != len(sc.Programs)*sc.PhasesPerProgram {
		t.Fatalf("%d phase IDs, want %d", len(ids), len(sc.Programs)*sc.PhasesPerProgram)
	}
	k := 0
	for _, prog := range sc.Programs {
		for ph := 0; ph < sc.PhasesPerProgram; ph++ {
			if ids[k].Program != prog || ids[k].Phase != ph {
				t.Fatalf("PhaseIDs[%d] = %+v, want {%s %d}", k, ids[k], prog, ph)
			}
			k++
		}
	}
}
