package experiment

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/altmodel"
	"repro/internal/arch"
	"repro/internal/counters"
	"repro/internal/trace"
)

// The dataset build is the expensive step; share one across tests.
var (
	dsOnce sync.Once
	dsVal  *Dataset
	dsErr  error
)

func testDataset(t *testing.T) *Dataset {
	t.Helper()
	dsOnce.Do(func() {
		dsVal, dsErr = Build(context.Background(), TestScale())
	})
	if dsErr != nil {
		t.Fatal(dsErr)
	}
	return dsVal
}

func TestBuildDatasetShape(t *testing.T) {
	ds := testDataset(t)
	sc := TestScale()
	wantPhases := len(sc.Programs) * sc.PhasesPerProgram
	if len(ds.Phases) != wantPhases {
		t.Fatalf("%d phases, want %d", len(ds.Phases), wantPhases)
	}
	if len(ds.SharedConfigs) != sc.UniformSamples {
		t.Errorf("%d shared configs, want %d", len(ds.SharedConfigs), sc.UniformSamples)
	}
	if ds.SharedConfigs[0] != arch.Baseline() {
		t.Errorf("shared configs must include the paper baseline first")
	}
	for _, id := range ds.Phases {
		if _, ok := ds.Best[id]; !ok {
			t.Errorf("phase %s has no best config", id)
		}
		if len(ds.Good[id]) == 0 {
			t.Errorf("phase %s has no good configs", id)
		}
		if len(ds.FeaturesAdv[id]) != counters.Dim(counters.Advanced) {
			t.Errorf("phase %s advanced features wrong dim", id)
		}
		if len(ds.FeaturesBasic[id]) != counters.Dim(counters.Basic) {
			t.Errorf("phase %s basic features wrong dim", id)
		}
	}
	if !ds.BestStatic.Valid() {
		t.Error("best static invalid")
	}
	if ds.SimCount() == 0 {
		t.Error("no simulations memoised")
	}
}

func TestGoodSetsContainBestAndRespectThreshold(t *testing.T) {
	ds := testDataset(t)
	for _, id := range ds.Phases {
		best := ds.Best[id]
		bestRes, _ := ds.Result(id, best)
		found := false
		for _, g := range ds.Good[id] {
			res, _ := ds.Result(id, g)
			if res.Efficiency < bestRes.Efficiency*ds.Scale.GoodThreshold-1e-9 {
				t.Errorf("phase %s good config below threshold", id)
			}
			if g == best {
				found = true
			}
		}
		if !found {
			t.Errorf("phase %s good set missing its best config", id)
		}
	}
}

func TestOracleBeatsStaticPerPhase(t *testing.T) {
	ds := testDataset(t)
	// By construction the per-phase best is at least as good as the best
	// static on every phase.
	for _, id := range ds.Phases {
		b, _ := ds.Result(id, ds.Best[id])
		s, _ := ds.Result(id, ds.BestStatic)
		if b.Efficiency < s.Efficiency-1e-9 {
			t.Errorf("phase %s: oracle %.3e below static %.3e", id, b.Efficiency, s.Efficiency)
		}
	}
	// And as a mean ratio.
	oracle := ds.RatioMean(ds.Phases, ds.Oracle())
	static := ds.RatioMean(ds.Phases, Static(ds.BestStatic))
	if oracle < static {
		t.Errorf("oracle mean ratio %.3f below static %.3f", oracle, static)
	}
	if static < 0.999 || static > 1.001 {
		t.Errorf("static self-ratio %.3f, want 1", static)
	}
}

func TestPerProgramStaticBetweenStaticAndOracle(t *testing.T) {
	ds := testDataset(t)
	for _, prog := range ds.Programs() {
		phases := ds.ProgramPhases(prog)
		static := ds.RatioMean(phases, Static(ds.BestStatic))
		perProg := ds.RatioMean(phases, Static(ds.PerProgramStatic(prog)))
		oracle := ds.RatioMean(phases, ds.Oracle())
		if perProg < static-1e-9 {
			t.Errorf("%s: per-program static %.3f below overall static %.3f", prog, perProg, static)
		}
		if oracle < perProg-1e-9 {
			t.Errorf("%s: oracle %.3f below per-program static %.3f", prog, oracle, perProg)
		}
	}
}

func TestEvaluateModelProducesValidConfigs(t *testing.T) {
	ds := testDataset(t)
	for _, set := range []counters.Set{counters.Basic, counters.Advanced} {
		ev, err := ds.EvaluateModel(set)
		if err != nil {
			t.Fatal(err)
		}
		if len(ev.Predicted) != len(ds.Phases) {
			t.Fatalf("%s: predicted %d phases, want %d", set, len(ev.Predicted), len(ds.Phases))
		}
		for id, cfg := range ev.Predicted {
			if !cfg.Valid() {
				t.Errorf("%s: phase %s predicted invalid config", set, id)
			}
		}
	}
}

func TestSuiteReportStructure(t *testing.T) {
	ds := testDataset(t)
	adv, err := ds.EvaluateModel(counters.Advanced)
	if err != nil {
		t.Fatal(err)
	}
	basic, err := ds.EvaluateModel(counters.Basic)
	if err != nil {
		t.Fatal(err)
	}
	rep := ds.Suite(adv, basic)
	if len(rep.Rows) != len(ds.Programs()) {
		t.Fatalf("%d rows, want %d", len(rep.Rows), len(ds.Programs()))
	}
	for _, row := range rep.Rows {
		if row.Oracle < row.PerProgram-1e-9 || row.PerProgram < 1-1e-9 {
			t.Errorf("%s: ordering violated: perProg=%.2f oracle=%.2f", row.Program, row.PerProgram, row.Oracle)
		}
		if row.ModelAdvanced <= 0 || row.ModelBasic <= 0 {
			t.Errorf("%s: nonpositive model ratios", row.Program)
		}
		if row.PerfRatio <= 0 || row.EnergyRatio <= 0 {
			t.Errorf("%s: nonpositive breakdown ratios", row.Program)
		}
	}
	if rep.GeoOracle < 1 {
		t.Errorf("oracle geomean %.3f below 1", rep.GeoOracle)
	}
	if rep.Render() == "" || ds.TableIII().Render() == "" {
		t.Error("empty renders")
	}
}

func TestFigure7(t *testing.T) {
	ds := testDataset(t)
	adv, err := ds.EvaluateModel(counters.Advanced)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ds.Figure7(adv)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.VsBaseline) != len(ds.Phases) || len(rep.VsBest) != len(ds.Phases) {
		t.Fatalf("distribution sizes wrong: %d/%d", len(rep.VsBaseline), len(rep.VsBest))
	}
	for _, v := range rep.VsBest {
		if v < 0 {
			t.Errorf("negative ratio %v", v)
		}
	}
	if rep.Render() == "" {
		t.Error("empty render")
	}
}

func TestFigure8(t *testing.T) {
	ds := testDataset(t)
	rep := ds.Figure8(arch.Width)
	if len(rep.Values) == 0 {
		t.Fatal("no width values covered")
	}
	totalPct := 0.0
	for _, v := range rep.Values {
		if v.Violin.Max > 1+1e-9 {
			t.Errorf("pinned-best ratio above 1: %+v", v)
		}
		totalPct += v.BestPct
	}
	if totalPct < 99 || totalPct > 101 {
		t.Errorf("best%% sums to %.1f, want 100", totalPct)
	}
	if rep.Render() == "" {
		t.Error("empty render")
	}
}

func TestFigure3(t *testing.T) {
	ds := testDataset(t)
	ids := []PhaseID{{"mcf", 0}, {"swim", 0}}
	rep, err := ds.Figure3(ids)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Phases) != 2 {
		t.Fatalf("%d phases, want 2", len(rep.Phases))
	}
	for _, ph := range rep.Phases {
		maxEff := 0.0
		for _, e := range ph.Efficiency {
			if e > maxEff {
				maxEff = e
			}
		}
		if maxEff < 0.999 || maxEff > 1.001 {
			t.Errorf("%s: sweep not normalised to 1 (max %.3f)", ph.ID, maxEff)
		}
		if arch.IndexOf(arch.LSQSize, ph.BestLSQ) < 0 {
			t.Errorf("%s: bad best LSQ %d", ph.ID, ph.BestLSQ)
		}
	}
	if _, err := ds.Figure3([]PhaseID{{"nonexistent", 0}}); err == nil {
		t.Error("unknown phase accepted")
	}
	if rep.Render() == "" {
		t.Error("empty render")
	}
}

func TestTableIV(t *testing.T) {
	ds := testDataset(t)
	rep, err := ds.TableIV([]int{4, 64}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 2 {
		t.Fatalf("%d rows, want 2", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		if row.Agreement < 0 || row.Agreement > 1 {
			t.Errorf("agreement %v out of range", row.Agreement)
		}
	}
	if rep.Render() == "" {
		t.Error("empty render")
	}
}

func TestStorageAnalysis(t *testing.T) {
	ds := testDataset(t)
	rep, err := ds.StorageAnalysis(counters.Basic)
	if err != nil {
		t.Fatal(err)
	}
	wantWeights := counters.Dim(counters.Basic) * arch.TotalValues()
	if rep.Weights != wantWeights || rep.QuantBytes != wantWeights {
		t.Errorf("weights/bytes = %d/%d, want %d", rep.Weights, rep.QuantBytes, wantWeights)
	}
	if rep.AgreementPct < 50 {
		t.Errorf("8-bit agreement only %.1f%%", rep.AgreementPct)
	}
	if rep.Render() == "" {
		t.Error("empty render")
	}
}

// TestFigure1Small sweeps a program outside the dataset, so Figure 1
// generates the traces of all its phases itself.
func TestFigure1Small(t *testing.T) {
	rep, err := testDataset(t).Figure1("gap")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != trace.PhasesPerProgram {
		t.Fatalf("%d points, want one per phase (%d)", len(rep.Points), trace.PhasesPerProgram)
	}
	for _, pt := range rep.Points {
		for _, w := range []int{4, 8} {
			if arch.IndexOf(arch.IQSize, pt.BestIQ[w]) < 0 {
				t.Errorf("interval %d width %d: bad IQ %d", pt.Interval, w, pt.BestIQ[w])
			}
			if arch.IndexOf(arch.RFSize, pt.BestRF[w]) < 0 {
				t.Errorf("interval %d width %d: bad RF %d", pt.Interval, w, pt.BestRF[w])
			}
		}
	}
	if rep.Render() == "" {
		t.Error("empty render")
	}
}

func TestScaleDefaults(t *testing.T) {
	var sc Scale
	d := sc.withDefaults()
	if len(d.Programs) != 26 || d.PhasesPerProgram != 10 || d.GoodThreshold != 0.95 {
		t.Errorf("defaults wrong: %+v", d)
	}
	if PhaseID.String(PhaseID{"mcf", 3}) != "mcf/3" {
		t.Error("PhaseID string wrong")
	}
}

func TestScaleByName(t *testing.T) {
	for name, want := range map[string]Scale{"test": TestScale(), "mid": MidScale(), "default": DefaultScale()} {
		if got, err := ScaleByName(name); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("ScaleByName(%q) = %+v, %v", name, got, err)
		}
	}
	if _, err := ScaleByName("Test"); err == nil {
		t.Error(`ScaleByName("Test") accepted`)
	}
}

func TestRatioMeanOfStaticIsOne(t *testing.T) {
	ds := testDataset(t)
	if r := ds.RatioMean(ds.Phases, Static(ds.BestStatic)); r < 0.999 || r > 1.001 {
		t.Errorf("static self ratio %v", r)
	}
	// Ratios over a subset still positive and finite.
	sub := ds.Phases[:3]
	if r := ds.RatioMean(sub, ds.Oracle()); r < 1-1e-9 {
		t.Errorf("oracle subset ratio %v below 1", r)
	}
}

func TestEvaluateAltModels(t *testing.T) {
	ds := testDataset(t)
	for name, build := range map[string]func([]altmodel.TrainingPhase) (altmodel.Predictor, error){
		"knn":   func(tr []altmodel.TrainingPhase) (altmodel.Predictor, error) { return altmodel.NewKNN(1, tr) },
		"ridge": func(tr []altmodel.TrainingPhase) (altmodel.Predictor, error) { return altmodel.NewRidge(0.5, tr) },
		"table": func(tr []altmodel.TrainingPhase) (altmodel.Predictor, error) { return altmodel.NewTable(6, tr) },
	} {
		ev, err := ds.EvaluateAltModel(build)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(ev.Predicted) != len(ds.Phases) {
			t.Fatalf("%s predicted %d phases", name, len(ev.Predicted))
		}
		for id, cfg := range ev.Predicted {
			if !cfg.Valid() {
				t.Errorf("%s: invalid prediction for %s", name, id)
			}
		}
		if r := ds.RatioMean(ds.Phases, ev.Choose()); r <= 0 {
			t.Errorf("%s: nonpositive ratio %v", name, r)
		}
	}
}

func TestAggregateEfficiencyConsistentWithPerf(t *testing.T) {
	ds := testDataset(t)
	choose := Static(ds.BestStatic)
	eff := ds.AggregateEfficiency(ds.Phases, choose)
	ips, joules := ds.AggregatePerf(ds.Phases, choose)
	if eff <= 0 || ips <= 0 || joules <= 0 {
		t.Fatalf("degenerate aggregates: eff=%v ips=%v J=%v", eff, ips, joules)
	}
	// eff = ips^3 / (J / seconds); recompute seconds from ips.
	var insts float64
	for _, id := range ds.Phases {
		res, _ := ds.Result(id, ds.BestStatic)
		insts += float64(res.Committed)
	}
	seconds := insts / ips
	watts := joules / seconds
	want := ips * ips * ips / watts
	if rel := (eff - want) / want; rel > 1e-9 || rel < -1e-9 {
		t.Errorf("AggregateEfficiency %.6e inconsistent with AggregatePerf-derived %.6e", eff, want)
	}
}

// foldRecorder is a fold's stand-in model: it decodes the phase index that
// TestHeldOutFolds uses as each phase's feature vector and counts every phase it
// is asked to predict, checking that its fold trained on no phase of that
// phase's program.
type foldRecorder struct {
	t         *testing.T
	ds        *Dataset
	trained   map[string]bool
	predicted map[PhaseID]int
}

func (r *foldRecorder) Predict(x []float64) arch.Config {
	id := r.ds.Phases[int(x[0])]
	r.predicted[id]++
	if r.trained[id.Program] {
		r.t.Errorf("phase %s predicted by a fold that trained on %s", id, id.Program)
	}
	return arch.Baseline()
}

// TestHeldOutFolds runs the held-out loop with single-program and
// two-program groups on the TestScale dataset. Every phase must be
// predicted exactly once, by a fold that trained on every phase of the
// other programs and none of its own. The soft-max fitter on ablated
// features (EvaluateModelAblated's folds) must predict every phase and
// record fourteen models per fold.
func TestHeldOutFolds(t *testing.T) {
	ds := testDataset(t)
	index := map[PhaseID][]float64{}
	for i, id := range ds.Phases {
		index[id] = []float64{float64(i)}
	}
	nProgs := len(ds.Programs())
	for _, size := range []int{1, 2} {
		rec := &foldRecorder{t: t, ds: ds, predicted: map[PhaseID]int{}}
		folds := 0
		ev, err := ds.heldOut(context.Background(), "test", counters.Advanced, size, index,
			func(_ context.Context, train []PhaseID, _ map[PhaseID][]float64) (altmodel.Predictor, error) {
				folds++
				rec.trained = map[string]bool{}
				for _, id := range train {
					rec.trained[id.Program] = true
				}
				if want := nProgs - min(size, nProgs-(folds-1)*size); len(rec.trained) != want {
					t.Errorf("size %d fold %d: trained on %d programs, want %d", size, folds, len(rec.trained), want)
				}
				return rec, nil
			})
		if err != nil {
			t.Fatal(err)
		}
		if want := (nProgs + size - 1) / size; folds != want {
			t.Errorf("size %d: %d folds, want %d", size, folds, want)
		}
		for _, id := range ds.Phases {
			if n := rec.predicted[id]; n != 1 {
				t.Errorf("size %d: phase %s predicted %d times", size, id, n)
			}
		}
		if len(ev.Predicted) != len(ds.Phases) {
			t.Errorf("size %d: %d predictions for %d phases", size, len(ev.Predicted), len(ds.Phases))
		}

		ab, err := ds.evaluateAblated("caches/", size)
		if err != nil {
			t.Fatal(err)
		}
		if len(ab.Predicted) != len(ds.Phases) || len(ab.FoldStats) != folds*int(arch.NumParams) {
			t.Errorf("size %d ablation: %d predictions, %d fold models", size, len(ab.Predicted), len(ab.FoldStats))
		}
		for id, cfg := range ab.Predicted {
			if !cfg.Valid() {
				t.Errorf("size %d ablation: invalid prediction for %s", size, id)
			}
		}
	}
}

// TestAblationFoldsTrain: EvaluateModelAblated holds programs out six at a
// time at the default scale, but never all of them, so on the four-program
// TestScale dataset every fold trains on at least one phase and every
// phase is predicted.
func TestAblationFoldsTrain(t *testing.T) {
	ds := testDataset(t)
	if got := ablationGroup(len(DefaultScale().Programs)); got != 6 {
		t.Errorf("default-scale ablation group = %d, want 6", got)
	}
	size := ablationGroup(len(ds.Programs()))
	folds := 0
	_, err := ds.heldOut(context.Background(), "test", counters.Advanced, size, ds.FeaturesAdv,
		func(_ context.Context, train []PhaseID, _ map[PhaseID][]float64) (altmodel.Predictor, error) {
			folds++
			if len(train) == 0 {
				t.Errorf("ablation fold %d trains on no phase", folds)
			}
			return constPredictor{}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if folds < 2 {
		t.Errorf("%d ablation folds over %d programs, want at least 2", folds, len(ds.Programs()))
	}
	ev, err := ds.EvaluateModelAblated("caches/")
	if err != nil {
		t.Fatal(err)
	}
	if len(ev.Predicted) != len(ds.Phases) || len(ev.FoldStats) != folds*int(arch.NumParams) {
		t.Errorf("ablation: %d predictions for %d phases, %d fold models for %d folds",
			len(ev.Predicted), len(ds.Phases), len(ev.FoldStats), folds)
	}
}

// constPredictor predicts the baseline for every phase.
type constPredictor struct{}

func (constPredictor) Predict([]float64) arch.Config { return arch.Baseline() }
