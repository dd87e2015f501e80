package counters

import (
	"math"
	"testing"

	"repro/internal/arch"
	"repro/internal/cpu"
	"repro/internal/stats"
	"repro/internal/trace"
)

// profiledResult runs a small profiled simulation once per test binary.
func profiledResult(t *testing.T, program string, phase int) *cpu.Result {
	t.Helper()
	g, err := trace.NewGenerator(program, phase)
	if err != nil {
		t.Fatal(err)
	}
	s, err := cpu.New(arch.Profiling())
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(g, 5000, cpu.Options{Collect: true, WarmupInsts: 2000})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSetStrings(t *testing.T) {
	if Basic.String() != "basic" || Advanced.String() != "advanced" {
		t.Error("set names wrong")
	}
	if Set(9).String() != "Set(9)" {
		t.Error("unknown set name wrong")
	}
	for _, s := range []Set{Basic, Advanced} {
		if got, err := ParseSet(s.String()); got != s || err != nil {
			t.Errorf("ParseSet(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseSet("Set(9)"); err == nil {
		t.Error("ParseSet accepted an unknown name")
	}
}

func TestDimsStableAndDistinct(t *testing.T) {
	db, da := Dim(Basic), Dim(Advanced)
	if db < 10 || db > 32 {
		t.Errorf("basic dim %d outside expected scalar-counter range", db)
	}
	if da < 300 {
		t.Errorf("advanced dim %d too small for full temporal histograms", da)
	}
	if da <= db {
		t.Errorf("advanced dim %d not larger than basic %d", da, db)
	}
	// Stable across calls.
	if Dim(Basic) != db || Dim(Advanced) != da {
		t.Error("dims unstable")
	}
}

func TestFeatureVectorsMatchDim(t *testing.T) {
	res := profiledResult(t, "vortex", 0)
	for _, set := range []Set{Basic, Advanced} {
		f := Features(res, set)
		if len(f) != Dim(set) {
			t.Errorf("%s features len %d, want %d", set, len(f), Dim(set))
		}
	}
}

func TestFeaturesBounded(t *testing.T) {
	res := profiledResult(t, "mcf", 0)
	for _, set := range []Set{Basic, Advanced} {
		for i, v := range Features(res, set) {
			if v < 0 || v > 1.0001 {
				t.Errorf("%s feature %d = %v outside [0,1]", set, i, v)
			}
		}
	}
}

func TestBiasIsLast(t *testing.T) {
	res := profiledResult(t, "gzip", 1)
	for _, set := range []Set{Basic, Advanced} {
		f := Features(res, set)
		if f[len(f)-1] != 1 {
			t.Errorf("%s bias feature = %v, want 1", set, f[len(f)-1])
		}
	}
}

func TestPanicsWithoutCounters(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Features did not panic on missing counters")
		}
	}()
	Features(&cpu.Result{}, Advanced)
}

func TestDifferentPhasesDifferentFeatures(t *testing.T) {
	a := Features(profiledResult(t, "mcf", 0), Advanced)
	b := Features(profiledResult(t, "swim", 0), Advanced)
	diff := 0.0
	for i := range a {
		d := a[i] - b[i]
		diff += d * d
	}
	if diff < 1e-3 {
		t.Errorf("mcf and swim advanced features nearly identical (L2^2 = %g)", diff)
	}
}

func TestAdvancedCarriesCacheSignal(t *testing.T) {
	// A pointer chase over megabytes almost never revisits a block, so its
	// stack-distance mass must sit in the cold/overflow bin far more than
	// a program whose working set is tens of KB; this is the capacity
	// signal the model uses for cache sizing.
	chase := profiledResult(t, "mcf", 0)
	small := profiledResult(t, "eon", 0)
	cCold := chase.Counters.DCache.StackDist.Normalized()
	eCold := small.Counters.DCache.StackDist.Normalized()
	last := len(cCold) - 1
	if cCold[last] <= eCold[last] {
		t.Errorf("mcf cold-bin mass %.3f not above eon %.3f", cCold[last], eCold[last])
	}
}

func TestSegmentsTileAdvancedVector(t *testing.T) {
	segs := Segments()
	if len(segs) == 0 {
		t.Fatal("no segments")
	}
	pos := 0
	for _, s := range segs {
		if s.Start != pos {
			t.Fatalf("segment %s starts at %d, want %d (gap or overlap)", s.Name, s.Start, pos)
		}
		if s.Len <= 0 {
			t.Fatalf("segment %s has length %d", s.Name, s.Len)
		}
		pos += s.Len
	}
	if pos != Dim(Advanced) {
		t.Fatalf("segments cover %d features, want %d", pos, Dim(Advanced))
	}
	if segs[len(segs)-1].Name != "bias" {
		t.Fatalf("last segment %q, want bias", segs[len(segs)-1].Name)
	}
}

func TestAblateFamily(t *testing.T) {
	res := profiledResult(t, "gzip", 0)
	f := Features(res, Advanced)
	ab := AblateFamily(f, "caches/")
	// Original untouched.
	changed := false
	for i := range f {
		if f[i] != ab[i] {
			changed = true
		}
	}
	if !changed {
		t.Fatal("ablation changed nothing")
	}
	for _, s := range Segments() {
		isCache := len(s.Name) >= 7 && s.Name[:7] == "caches/"
		for i := s.Start; i < s.Start+s.Len; i++ {
			if isCache && ab[i] != 0 {
				t.Fatalf("cache segment %s not zeroed at %d", s.Name, i)
			}
			if !isCache && ab[i] != f[i] {
				t.Fatalf("non-cache segment %s modified at %d", s.Name, i)
			}
		}
	}
}

// TestAppendHistMatchesNormalized holds appendHist to the bits of
// Histogram.Normalized, for an empty histogram and a populated one.
func TestAppendHistMatchesNormalized(t *testing.T) {
	empty := stats.NewHistogram(5)
	full := stats.NewHistogram(7)
	for b := 0; b < 7; b++ {
		full.AddN(b, uint64(3*b*b+1))
	}
	for _, h := range []*stats.Histogram{empty, full} {
		got := appendHist([]float64{0.5}, h)
		want := append([]float64{0.5}, h.Normalized()...)
		if len(got) != len(want) {
			t.Fatalf("appendHist gave %d values, want %d", len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Errorf("value %d: appendHist %v, Normalized %v", i, got[i], want[i])
			}
		}
	}
}
