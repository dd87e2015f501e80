package core

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/arch"
	"repro/internal/counters"
	"repro/internal/cpu"
	"repro/internal/power"
	"repro/internal/softmax"
	"repro/internal/trace"
)

// trainToyPredictor builds a predictor over synthetic features where
// feature 0 indicates "memory bound" and feature 1 "compute bound", with
// good configs that differ accordingly. It exercises the full training
// path cheaply.
func trainToyPredictor(t testing.TB, set counters.Set) *Predictor {
	t.Helper()
	d := counters.Dim(set)
	memFeat := make([]float64, d)
	memFeat[0] = 1
	memFeat[d-1] = 1
	cpuFeat := make([]float64, d)
	cpuFeat[1] = 1
	cpuFeat[d-1] = 1

	memCfg := arch.Baseline().With(arch.L2CacheKB, 4096).With(arch.Width, 2)
	cpuCfg := arch.Baseline().With(arch.L2CacheKB, 256).With(arch.Width, 8)
	phases := []PhaseExample{
		{Features: memFeat, Good: []arch.Config{memCfg}},
		{Features: cpuFeat, Good: []arch.Config{cpuCfg}},
	}
	opts := softmax.DefaultOptions()
	opts.MaxIter = 60
	pred, err := TrainPredictor(set, phases, opts)
	if err != nil {
		t.Fatal(err)
	}
	return pred
}

func TestTrainPredictorLearnsSeparation(t *testing.T) {
	pred := trainToyPredictor(t, counters.Basic)
	d := counters.Dim(counters.Basic)
	memFeat := make([]float64, d)
	memFeat[0] = 1
	memFeat[d-1] = 1
	cpuFeat := make([]float64, d)
	cpuFeat[1] = 1
	cpuFeat[d-1] = 1

	mem := pred.Predict(memFeat)
	cpuc := pred.Predict(cpuFeat)
	if mem[arch.L2CacheKB] != 4096 || mem[arch.Width] != 2 {
		t.Errorf("memory-bound prediction wrong: %v", mem)
	}
	if cpuc[arch.L2CacheKB] != 256 || cpuc[arch.Width] != 8 {
		t.Errorf("compute-bound prediction wrong: %v", cpuc)
	}
	if !mem.Valid() || !cpuc.Valid() {
		t.Error("invalid predicted config")
	}
}

func TestTrainPredictorValidation(t *testing.T) {
	if _, err := TrainPredictor(counters.Basic, nil, softmax.DefaultOptions()); err == nil {
		t.Error("no phases accepted")
	}
	bad := []PhaseExample{{Features: []float64{1}, Good: []arch.Config{arch.Baseline()}}}
	if _, err := TrainPredictor(counters.Basic, bad, softmax.DefaultOptions()); err == nil {
		t.Error("wrong feature dim accepted")
	}
	d := counters.Dim(counters.Basic)
	noGood := []PhaseExample{{Features: make([]float64, d)}}
	if _, err := TrainPredictor(counters.Basic, noGood, softmax.DefaultOptions()); err == nil {
		t.Error("phase without good configs accepted")
	}
	badCfg := arch.Baseline()
	badCfg[arch.Width] = 5
	invalid := []PhaseExample{{Features: make([]float64, d), Good: []arch.Config{badCfg}}}
	if _, err := TrainPredictor(counters.Basic, invalid, softmax.DefaultOptions()); err == nil {
		t.Error("invalid good config accepted")
	}
}

// TestTrainingSetReadOnly checks that training a parameter's model never
// changes the shared training set: TrainPredictor, the fourteen models
// trained from one set in reverse order, and each trained from its own
// freshly built set give bit-identical weights and convergence records.
func TestTrainingSetReadOnly(t *testing.T) {
	phases := syntheticPhases(12, rand.New(rand.NewPCG(5, 8)))
	opts := softmax.DefaultOptions()
	opts.MaxIter = 40
	want, err := TrainPredictor(counters.Advanced, phases, opts)
	if err != nil {
		t.Fatal(err)
	}
	d := counters.Dim(counters.Advanced)
	xs := make([][]float64, len(phases))
	for i, ph := range phases {
		xs[i] = ph.Features
	}
	labels := func(param arch.Param) [][]int {
		out := make([][]int, len(phases))
		for i, ph := range phases {
			for _, cfg := range ph.Good {
				out[i] = append(out[i], arch.IndexOf(param, cfg[param]))
			}
		}
		return out
	}
	shared, err := softmax.NewTrainingSet(d, xs)
	if err != nil {
		t.Fatal(err)
	}
	same := func(how string, param arch.Param, m *softmax.Model) {
		t.Helper()
		w := want.Models[param]
		if m.Stats != w.Stats {
			t.Errorf("%s: %s stats %+v, TrainPredictor %+v", how, param, m.Stats, w.Stats)
		}
		for i := range w.W {
			if math.Float64bits(m.W[i]) != math.Float64bits(w.W[i]) {
				t.Fatalf("%s: %s weight %d = %v, TrainPredictor %v", how, param, i, m.W[i], w.W[i])
			}
		}
	}
	for param := arch.NumParams - 1; param >= 0; param-- {
		m, err := shared.Train(arch.DomainSize(param), labels(param), opts)
		if err != nil {
			t.Fatal(err)
		}
		same("reverse order", param, m)
	}
	for param := arch.Param(0); param < arch.NumParams; param++ {
		fresh, err := softmax.NewTrainingSet(d, xs)
		if err != nil {
			t.Fatal(err)
		}
		m, err := fresh.Train(arch.DomainSize(param), labels(param), opts)
		if err != nil {
			t.Fatal(err)
		}
		same("fresh set", param, m)
	}
}

func TestPredictorWeightCountAndQuantization(t *testing.T) {
	pred := trainToyPredictor(t, counters.Basic)
	want := counters.Dim(counters.Basic) * arch.TotalValues()
	if got := pred.WeightCount(); got != want {
		t.Errorf("weight count %d, want D*sum(K) = %d", got, want)
	}
	q := pred.Quantize()
	if q.StorageBytes() != want {
		t.Errorf("quantized storage %d bytes, want %d", q.StorageBytes(), want)
	}
	d := counters.Dim(counters.Basic)
	f := make([]float64, d)
	f[0] = 1
	f[d-1] = 1
	qc := q.Predict(f)
	if !qc.Valid() {
		t.Error("quantized prediction invalid")
	}
}

func TestTableVMatchesPaperAtBaseline(t *testing.T) {
	want := map[string]uint64{
		"Width": 443, "RF": 487, "Bpred": 154, "ROB": 255,
		"IQ": 234, "LSQ": 275, "ICache": 478, "DCache": 620, "UCache": 18322,
	}
	for _, row := range TableV() {
		if got := want[row.Structure]; got != row.Cycles {
			t.Errorf("Table V %s = %d cycles, want %d", row.Structure, row.Cycles, got)
		}
	}
}

func TestStructureCyclesScaleWithSize(t *testing.T) {
	small := StructureCycles(arch.L2CacheKB, 256)
	big := StructureCycles(arch.L2CacheKB, 4096)
	if big <= small {
		t.Errorf("L2 reconfig cycles not monotone: %d vs %d", small, big)
	}
	if d := StructureCycles(arch.DepthFO4, 12); d == 0 {
		t.Error("depth reconfig free")
	}
	if p := StructureCycles(arch.RFReadPorts, 8); p == 0 {
		t.Error("port reconfig free")
	}
	if b := StructureCycles(arch.BTBSize, 2048); b == 0 {
		t.Error("BTB reconfig free")
	}
}

func TestOverheadZeroForSameConfig(t *testing.T) {
	c := Overhead(arch.Baseline(), arch.Baseline(), power.New(arch.Baseline()))
	if c.StallCycles != 0 || c.EnergyPJ != 0 || c.Changed != 0 || c.FlushCaches {
		t.Errorf("same-config overhead nonzero: %+v", c)
	}
}

func TestOverheadDetectsCacheFlush(t *testing.T) {
	from := arch.Baseline()
	to := from.With(arch.DCacheKB, 64)
	c := Overhead(from, to, power.New(to))
	if !c.FlushCaches {
		t.Error("cache size change did not flush")
	}
	if c.Changed != 1 || c.StallCycles == 0 || c.EnergyPJ <= 0 {
		t.Errorf("unexpected overhead: %+v", c)
	}
	// Non-cache change must not flush.
	c2 := Overhead(from, from.With(arch.IQSize, 64), power.New(from))
	if c2.FlushCaches {
		t.Error("IQ change flushed caches")
	}
}

func TestOverheadDominatedByLargestStructure(t *testing.T) {
	from := arch.Baseline()
	to := from.With(arch.IQSize, 64).With(arch.L2CacheKB, 4096)
	both := Overhead(from, to, power.New(to))
	justL2 := Overhead(from, from.With(arch.L2CacheKB, 4096), power.New(to))
	if both.StallCycles != justL2.StallCycles {
		t.Errorf("stall should be dominated by L2: %d vs %d", both.StallCycles, justL2.StallCycles)
	}
}

func TestProfilingCostShape(t *testing.T) {
	// Figure 9's shape: block reuse on the D-cache is the most expensive,
	// everything stays below ~2%.
	rows, err := Figure9(power.New(arch.Profiling()))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("got %d rows, want 6 (3 caches x 2 features)", len(rows))
	}
	var maxDyn, maxLeak float64
	for _, r := range rows {
		if r.Overhead.DynamicPct < 0 || r.Overhead.DynamicPct > 2.5 {
			t.Errorf("%s %s dynamic overhead %.2f%% outside [0, 2.5]",
				r.Cache, r.Feature, r.Overhead.DynamicPct)
		}
		if r.Overhead.LeakagePct < 0 || r.Overhead.LeakagePct > 2.5 {
			t.Errorf("%s %s leakage overhead %.2f%% outside [0, 2.5]",
				r.Cache, r.Feature, r.Overhead.LeakagePct)
		}
		if r.Overhead.DynamicPct > maxDyn {
			maxDyn = r.Overhead.DynamicPct
		}
		if r.Overhead.LeakagePct > maxLeak {
			maxLeak = r.Overhead.LeakagePct
		}
	}
	if maxDyn < 0.5 {
		t.Errorf("max dynamic overhead %.2f%% suspiciously low (paper: ~1.6%%)", maxDyn)
	}
}

func TestProfilingCostValidation(t *testing.T) {
	if _, err := ProfilingCost(0, 32, 1, 16, SetReuse); err == nil {
		t.Error("zero cache accepted")
	}
	if _, err := ProfilingCost(32, 32, 0, 16, SetReuse); err == nil {
		t.Error("zero samples accepted")
	}
	if _, err := ProfilingCost(32, 32, 64, 16, SetReuse); err == nil {
		t.Error("oversampling accepted")
	}
	if SetReuse.String() != "set-reuse" || BlockReuse.String() != "block-reuse" {
		t.Error("feature names wrong")
	}
}

func TestProfilingSamplingReducesCost(t *testing.T) {
	full, _ := ProfilingCost(32, 32, 512, 512, BlockReuse)
	sampled, _ := ProfilingCost(32, 32, 16, 512, BlockReuse)
	if sampled.DynamicPct >= full.DynamicPct || sampled.LeakagePct >= full.LeakagePct {
		t.Errorf("sampling did not reduce cost: %+v vs %+v", sampled, full)
	}
}

func TestControllerValidation(t *testing.T) {
	pred := trainToyPredictor(t, counters.Basic)
	if _, err := NewController(nil, DefaultOptions()); err == nil {
		t.Error("nil predictor accepted")
	}
	bad := DefaultOptions()
	bad.Interval = 0
	if _, err := NewController(pred, bad); err == nil {
		t.Error("zero interval accepted")
	}
	bad = DefaultOptions()
	bad.Start[arch.Width] = 5
	if _, err := NewController(pred, bad); err == nil {
		t.Error("invalid start config accepted")
	}
	ctl, err := NewController(pred, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.Run(nil, 0); err == nil {
		t.Error("zero intervals accepted")
	}
}

func TestControllerEndToEnd(t *testing.T) {
	// A full controller run over a program that switches phases: the
	// controller must profile at least once, produce a valid report, and
	// keep running configurations from the design space.
	pred := trainToyPredictor(t, counters.Advanced)
	opts := DefaultOptions()
	opts.Interval = 4000
	opts.SampledSets = 32
	ctl, err := NewController(pred, opts)
	if err != nil {
		t.Fatal(err)
	}
	g, err := trace.NewGenerator("galgel", 0)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ctl.Run(g, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Records) != 6 {
		t.Fatalf("%d records, want 6", len(rep.Records))
	}
	if rep.Profiles == 0 {
		t.Error("controller never profiled")
	}
	if !rep.Records[0].Profiled {
		t.Error("first interval must profile")
	}
	if rep.TotalInsts != 6*4000 {
		t.Errorf("total insts %d, want %d", rep.TotalInsts, 6*4000)
	}
	if rep.Efficiency <= 0 || rep.Watts <= 0 || rep.IPS <= 0 {
		t.Errorf("bad aggregate metrics: %+v", rep)
	}
	for _, r := range rep.Records {
		if !r.Config.Valid() {
			t.Errorf("interval %d ran invalid config %v", r.Index, r.Config)
		}
		if r.Cycles == 0 || r.EnergyJ <= 0 {
			t.Errorf("interval %d has zero cost", r.Index)
		}
	}
	if ctl.Current() != rep.Records[len(rep.Records)-1].Config {
		t.Error("Current() inconsistent with last record")
	}
}

func TestControllerCadencePolicy(t *testing.T) {
	// With a cadence that freezes caches except every 2nd reconfig, cache
	// parameters must not change on odd reconfiguration events.
	pred := trainToyPredictor(t, counters.Advanced)
	opts := DefaultOptions()
	opts.Interval = 3000
	opts.Cadence = EveryNth(2)
	ctl, err := NewController(pred, opts)
	if err != nil {
		t.Fatal(err)
	}
	g, _ := trace.NewGenerator("gap", 0)
	if _, err := ctl.Run(g, 4); err != nil {
		t.Fatal(err)
	}
	// The policy itself:
	pol := EveryNth(3)
	if pol(1, arch.L2CacheKB) || !pol(3, arch.L2CacheKB) || !pol(1, arch.IQSize) {
		t.Error("EveryNth policy wrong")
	}
}

func TestControllerRunsProfilingOnProfilingConfig(t *testing.T) {
	pred := trainToyPredictor(t, counters.Advanced)
	opts := DefaultOptions()
	opts.Interval = 2500
	ctl, _ := NewController(pred, opts)
	g, _ := trace.NewGenerator("eon", 0)
	rep, err := ctl.Run(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	_ = rep
	// The profiled interval is executed on some configuration and the
	// second interval must run on the predicted (current) config.
	if rep.Records[1].Profiled && rep.PhaseChanges == 0 {
		t.Error("second interval profiled without a phase change")
	}
}

var _ = cpu.Options{} // keep cpu import if assertions above change
