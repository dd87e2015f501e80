// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (see DESIGN.md's per-experiment index), plus ablation benches
// for the design choices the paper calls out. Each benchmark prints the
// regenerated rows/series once per process and times the (cheap) report
// aggregation; the expensive pipeline — dataset construction and
// leave-one-out model evaluation — is built once and shared.
//
// Scale is selected with REPRO_BENCH_SCALE: "test" (seconds), "mid"
// (default, minutes) or "full" (the whole 26x10-phase suite, tens of
// minutes on one core). With REPRO_CACHE_DIR set, the pipeline builds
// against the persistent result store there (internal/store), making the
// ~40-minute table/figure regeneration resumable: an interrupted run
// keeps every simulation it paid for, and a repeat run replays from disk.
// REPRO_MANIFEST=<path> writes a run manifest after the pipeline build
// and its two leave-one-out evaluations (auto-named manifest-bench.json
// under REPRO_CACHE_DIR when that is set); see README "Run manifests".
package repro

import (
	"context"
	"fmt"
	"log/slog"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/altmodel"
	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/cpu"
	"repro/internal/experiment"
	"repro/internal/multicore"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/trace"
)

// benchScaleName is the resolved REPRO_BENCH_SCALE name, for the manifest.
func benchScaleName() string {
	switch s := os.Getenv("REPRO_BENCH_SCALE"); s {
	case "test", "full":
		return s
	default:
		return "mid"
	}
}

// benchScale resolves the harness scale from the environment.
func benchScale() experiment.Scale {
	switch os.Getenv("REPRO_BENCH_SCALE") {
	case "test":
		return experiment.TestScale()
	case "full":
		sc := experiment.DefaultScale()
		return sc
	default: // mid
		sc := experiment.DefaultScale()
		sc.PhasesPerProgram = 4
		sc.IntervalInsts = 6000
		sc.WarmupInsts = 6000
		sc.UniformSamples = 28
		sc.LocalSamples = 8
		sc.SweepParams = []arch.Param{arch.Width, arch.IQSize, arch.ICacheKB, arch.L2CacheKB}
		return sc
	}
}

// Shared pipeline state, built once per process.
var (
	pipeOnce sync.Once
	pipeErr  error
	pipeDS   *experiment.Dataset
	pipeAdv  *experiment.Evaluation
	pipeBas  *experiment.Evaluation
	pipeRep  experiment.SuiteReport
)

func pipeline(b *testing.B) (*experiment.Dataset, *experiment.Evaluation, *experiment.Evaluation, experiment.SuiteReport) {
	b.Helper()
	pipeOnce.Do(func() {
		sc := benchScale()
		fmt.Printf("# building dataset: %d programs x %d phases, %d-inst intervals\n",
			len(sc.Programs), sc.PhasesPerProgram, sc.IntervalInsts)
		// REPRO_MANIFEST records the build into a run manifest; the tracer
		// must be live before the store opens so the span tree is complete.
		manifestPath := os.Getenv("REPRO_MANIFEST")
		if manifestPath == "" {
			if dir := os.Getenv("REPRO_CACHE_DIR"); dir != "" {
				manifestPath = filepath.Join(dir, "manifest-bench.json")
			}
		}
		tr := obs.DefaultTracer()
		if manifestPath != "" {
			tr.Enable()
		}
		buildStart := time.Now()
		// Live progress/ETA with the memo hit rate — the full-scale build
		// takes tens of minutes and used to be silent.
		prog := &obs.Progress{Logger: obs.NewLogger(os.Stderr, false, slog.LevelInfo), Every: 10 * time.Second}
		experiment.SetProgress(func(stage string, done, total int) {
			hits, sims := experiment.MemoStats()
			rate := 0.0
			if hits+sims > 0 {
				rate = float64(hits) / float64(hits+sims)
			}
			prog.Observe(stage, done, total, "sims", sims, "memoHitRate", fmt.Sprintf("%.2f", rate))
		})
		defer experiment.SetProgress(nil)
		// REPRO_CACHE_DIR persists every measurement simulation, making
		// interrupted regenerations resumable. The store stays open for
		// the whole process: post-build experiments (limit studies, model
		// scoring) read and extend it too.
		var pipeStore *store.Store
		if dir := os.Getenv("REPRO_CACHE_DIR"); dir != "" {
			pipeStore, pipeErr = store.Open(dir)
			if pipeErr != nil {
				return
			}
			fmt.Printf("# result store: %s (%d records)\n", dir, pipeStore.Len())
		}
		pipeDS, pipeErr = experiment.Build(context.Background(), sc, experiment.WithStore(pipeStore))
		if pipeErr != nil {
			return
		}
		if pipeStore != nil {
			st := pipeStore.Stats()
			fmt.Printf("# result store after build: hits=%d misses=%d records=%d\n",
				st.Hits, st.Misses, st.Records)
		}
		buildElapsed := time.Since(buildStart)
		fmt.Printf("# dataset: %d simulations; LOOCV (advanced)...\n", pipeDS.SimCount())
		pipeAdv, pipeErr = pipeDS.EvaluateModel(counters.Advanced)
		if pipeErr != nil {
			return
		}
		fmt.Printf("# LOOCV (basic)...\n")
		pipeBas, pipeErr = pipeDS.EvaluateModel(counters.Basic)
		if pipeErr != nil {
			return
		}
		if manifestPath != "" {
			m := obs.NewManifest("bench")
			m.SetDet("benchScale", benchScaleName())
			experiment.FillBuildManifest(m, pipeDS)
			experiment.FillEvalManifest(m, pipeAdv)
			experiment.FillEvalManifest(m, pipeBas)
			tr.FillManifest(m)
			m.SetTiming("totalSeconds", buildElapsed.Seconds())
			if insts := cpu.SimulatedInstructions(); insts > 0 {
				m.SetTiming("nsPerInst", buildElapsed.Seconds()*1e9/float64(insts))
			}
			if pipeStore != nil {
				pipeStore.Stats().FillManifest(m, buildElapsed.Seconds())
			}
			if err := m.WriteFile(manifestPath); err != nil {
				fmt.Printf("# manifest error: %v\n", err)
			} else {
				fmt.Printf("# manifest written: %s\n", manifestPath)
			}
		}
		pipeRep = pipeDS.Suite(pipeAdv, pipeBas)
	})
	if pipeErr != nil {
		b.Fatal(pipeErr)
	}
	return pipeDS, pipeAdv, pipeBas, pipeRep
}

var printOnce sync.Map

// printReport prints a named report exactly once per process.
func printReport(name, body string) {
	if _, loaded := printOnce.LoadOrStore(name, true); !loaded {
		fmt.Printf("\n===== %s =====\n%s\n", name, body)
	}
}

// BenchmarkTableI_DesignSpace regenerates Table I: the fourteen
// parameters, their domains and the total space size.
func BenchmarkTableI_DesignSpace(b *testing.B) {
	body := ""
	for p := arch.Param(0); p < arch.NumParams; p++ {
		body += fmt.Sprintf("%-10s %v (%d values)\n", p, arch.Domain(p), arch.DomainSize(p))
	}
	body += fmt.Sprintf("total design points: %d (paper: 627bn)", arch.SpaceSize())
	printReport("Table I: design space", body)
	var n uint64
	for i := 0; i < b.N; i++ {
		n = arch.SpaceSize()
	}
	b.ReportMetric(float64(n)/1e9, "Gpoints")
}

// BenchmarkTableIII_BestStatic regenerates Table III: the best overall
// static configuration found in the sampled space.
func BenchmarkTableIII_BestStatic(b *testing.B) {
	ds, _, _, _ := pipeline(b)
	printReport("Table III: best overall static", ds.TableIII().Render())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ds.TableIII()
	}
}

// BenchmarkFigure1_OptimalSizeOverTime regenerates Figure 1: the
// efficiency-optimal IQ and RF sizes over time for widths 8 and 4. Its
// runs are dataset measurements, so under REPRO_CACHE_DIR they replay and
// resume like every other table's.
func BenchmarkFigure1_OptimalSizeOverTime(b *testing.B) {
	ds, _, _, _ := pipeline(b)
	var body string
	for _, prog := range []string{"gap", "applu", "apsi"} {
		rep, err := ds.Figure1(prog)
		if err != nil {
			b.Fatal(err)
		}
		body += rep.Render() + "\n"
	}
	printReport("Figure 1: optimal sizes over time", body)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = body
	}
}

// BenchmarkFigure3_LSQCounters regenerates Figure 3: LSQ efficiency sweeps
// and the profiling counters for the first dataset phase of each of the
// paper's four example programs that the scale includes.
func BenchmarkFigure3_LSQCounters(b *testing.B) {
	ds, _, _, _ := pipeline(b)
	var ids []experiment.PhaseID
	for _, prog := range []string{"mgrid", "swim", "parser", "vortex"} {
		if phases := ds.ProgramPhases(prog); len(phases) > 0 {
			ids = append(ids, phases[0])
		}
	}
	if len(ids) == 0 {
		b.Skip("none of Figure 3's example programs is in the dataset")
	}
	rep, err := ds.Figure3(ids)
	if err != nil {
		b.Fatal(err)
	}
	printReport("Figure 3: LSQ sweeps and counters", rep.Render())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = rep
	}
}

// BenchmarkFigure4_EfficiencyVsStatic regenerates Figure 4: the model's
// efficiency against the best static for both counter sets.
func BenchmarkFigure4_EfficiencyVsStatic(b *testing.B) {
	ds, adv, bas, rep := pipeline(b)
	printReport("Figures 4/5/6: suite comparison", rep.Render())
	b.ReportMetric(rep.GeoModelAdvanced, "advanced_x")
	b.ReportMetric(rep.GeoModelBasic, "basic_x")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pipeRep = ds.Suite(adv, bas)
	}
}

// BenchmarkFigure5_PerfEnergyBreakdown regenerates Figure 5: the
// performance and energy breakdown of the advanced model vs the static.
func BenchmarkFigure5_PerfEnergyBreakdown(b *testing.B) {
	_, _, _, rep := pipeline(b)
	body := fmt.Sprintf("performance ratio (geomean): %.3f (paper: +15%%)\nenergy ratio (geomean):      %.3f (paper: -21%%)",
		rep.GeoPerfRatio, rep.GeoEnergyRatio)
	printReport("Figure 5: perf/energy breakdown", body)
	b.ReportMetric(rep.GeoPerfRatio, "perf_ratio")
	b.ReportMetric(rep.GeoEnergyRatio, "energy_ratio")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = rep.GeoPerfRatio
	}
}

// BenchmarkFigure6_LimitStudy regenerates Figure 6: model vs per-program
// static vs ideal per-phase dynamic.
func BenchmarkFigure6_LimitStudy(b *testing.B) {
	_, _, _, rep := pipeline(b)
	body := fmt.Sprintf("model (advanced):    %.2fx (paper: 2.0x)\nper-program static:  %.2fx (paper: 1.5x)\nideal dynamic:       %.2fx (paper: 2.7x)\nshare of oracle:     %.0f%% (paper: 74%%)",
		rep.GeoModelAdvanced, rep.GeoPerProgram, rep.GeoOracle, 100*rep.ShareOfOracle)
	printReport("Figure 6: limit study", body)
	b.ReportMetric(rep.GeoOracle, "oracle_x")
	b.ReportMetric(100*rep.ShareOfOracle, "share_pct")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = rep.GeoOracle
	}
}

// BenchmarkFigure7_PhaseHistograms regenerates Figure 7: the per-phase
// efficiency distributions against baseline and against the best.
func BenchmarkFigure7_PhaseHistograms(b *testing.B) {
	ds, adv, _, _ := pipeline(b)
	rep, err := ds.Figure7(adv)
	if err != nil {
		b.Fatal(err)
	}
	printReport("Figure 7: per-phase distributions", rep.Render())
	b.ReportMetric(100*rep.BetterThanBaselineFrac, "beat_baseline_pct")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, _ = ds.Figure7(adv)
	}
}

// BenchmarkFigure8_ParameterViolins regenerates Figure 8: the pinned-
// parameter efficiency distributions for width, IQ size and I-cache size.
func BenchmarkFigure8_ParameterViolins(b *testing.B) {
	ds, _, _, _ := pipeline(b)
	var body string
	for _, p := range []arch.Param{arch.Width, arch.IQSize, arch.ICacheKB} {
		body += ds.Figure8(p).Render() + "\n"
	}
	printReport("Figure 8: parameter violins", body)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ds.Figure8(arch.Width)
	}
}

// BenchmarkTableIV_SetSampling regenerates Table IV: how few cache sets
// dynamic set sampling can monitor while preserving predictions.
func BenchmarkTableIV_SetSampling(b *testing.B) {
	ds, _, _, _ := pipeline(b)
	rep, err := ds.TableIV([]int{4, 16, 64, 256}, 12)
	if err != nil {
		b.Fatal(err)
	}
	printReport("Table IV: set sampling", rep.Render())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = rep
	}
}

// BenchmarkTableV_ReconfigOverheads regenerates Table V: per-structure
// reconfiguration overheads in cycles.
func BenchmarkTableV_ReconfigOverheads(b *testing.B) {
	body := ""
	for _, row := range core.TableV() {
		body += fmt.Sprintf("%-8s %8d cycles\n", row.Structure, row.Cycles)
	}
	printReport("Table V: reconfiguration overheads", body)
	var rows int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = len(core.TableV())
	}
	b.ReportMetric(float64(rows), "structures")
}

// BenchmarkFigure9_ProfilingOverheads regenerates Figure 9: the energy
// overheads of gathering the reuse-distance histograms.
func BenchmarkFigure9_ProfilingOverheads(b *testing.B) {
	pm := power.New(arch.Profiling())
	rows, err := core.Figure9(pm)
	if err != nil {
		b.Fatal(err)
	}
	body := ""
	for _, r := range rows {
		body += fmt.Sprintf("%-7s %-12s sets=%4d/%-5d dynamic=%.2f%% leakage=%.2f%%\n",
			r.Cache, r.Feature, r.SampledSets, r.TotalSets, r.Overhead.DynamicPct, r.Overhead.LeakagePct)
	}
	body += "paper maxima: 1.55% dynamic, 1.4% leakage"
	printReport("Figure 9: profiling overheads", body)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, _ = core.Figure9(pm)
	}
	_ = rows
}

// BenchmarkModelStorage quantifies the quantised predictor's hardware cost
// (paper SVIII: ~2000 weights, 2KB at 8 bits).
func BenchmarkModelStorage(b *testing.B) {
	ds, _, _, _ := pipeline(b)
	var body string
	for _, set := range []counters.Set{counters.Basic, counters.Advanced} {
		rep, err := ds.StorageAnalysis(set)
		if err != nil {
			b.Fatal(err)
		}
		body += rep.Render()
	}
	printReport("Model storage (SVIII)", body)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = body
	}
}

// BenchmarkAblation_CounterFamilies removes one Table II counter family at
// a time from the advanced set and reports the efficiency each family is
// worth.
func BenchmarkAblation_CounterFamilies(b *testing.B) {
	ds, _, _, rep := pipeline(b)
	body := fmt.Sprintf("full advanced set:  %.3fx vs static\n", rep.GeoModelAdvanced)
	for _, fam := range []string{"caches/", "queues/", "rf/", "width/", "bpred/"} {
		ev, err := ds.EvaluateModelAblated(fam)
		if err != nil {
			b.Fatal(err)
		}
		r := ds.RatioMean(ds.Phases, ev.Choose())
		body += fmt.Sprintf("without %-9s %.3fx\n", fam, r)
	}
	printReport("Ablation: counter families", body)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = body
	}
}

// BenchmarkAblation_Quantized8Bit compares the 8-bit hardware predictor's
// end-to-end efficiency against the float model.
func BenchmarkAblation_Quantized8Bit(b *testing.B) {
	ds, adv, _, rep := pipeline(b)
	pred, err := ds.TrainAll(counters.Advanced)
	if err != nil {
		b.Fatal(err)
	}
	q := pred.Quantize()
	choose := func(id experiment.PhaseID) arch.Config {
		return q.Predict(ds.FeaturesAdv[id])
	}
	r := ds.RatioMean(ds.Phases, choose)
	body := fmt.Sprintf("LOOCV float model:        %.3fx vs static\n8-bit train-on-all model: %.3fx vs static (not held out)\nstorage: %d bytes",
		rep.GeoModelAdvanced, r, q.StorageBytes())
	printReport("Ablation: 8-bit quantisation", body)
	_ = adv
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = q.Predict(ds.FeaturesAdv[ds.Phases[0]])
	}
}

// BenchmarkAblation_CadencePolicy compares the controller adapting
// everything per phase change against a policy that reconfigures caches
// only every other event (the paper's future-work direction).
func BenchmarkAblation_CadencePolicy(b *testing.B) {
	ds, _, _, _ := pipeline(b)
	pred, err := ds.TrainAll(counters.Advanced)
	if err != nil {
		b.Fatal(err)
	}
	run := func(cad core.CadencePolicy) *core.Report {
		opts := core.DefaultOptions()
		opts.Interval = 6000
		opts.SampledSets = 32
		opts.Start = ds.BestStatic
		opts.Cadence = cad
		ctl, err := core.NewController(pred, opts)
		if err != nil {
			b.Fatal(err)
		}
		g, err := trace.NewGenerator("galgel", 0)
		if err != nil {
			b.Fatal(err)
		}
		rep, err := ctl.Run(g, 8)
		if err != nil {
			b.Fatal(err)
		}
		return rep
	}
	full := run(nil)
	lazy := run(core.EveryNth(2))
	body := fmt.Sprintf("adapt everything:        eff=%.3e, %d reconfigs\ncaches every 2nd event:  eff=%.3e, %d reconfigs",
		full.Efficiency, full.Reconfigs, lazy.Efficiency, lazy.Reconfigs)
	printReport("Ablation: cadence policy", body)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = body
	}
}

// BenchmarkSimulator_Throughput measures raw simulation speed, the budget
// everything else is scaled around.
func BenchmarkSimulator_Throughput(b *testing.B) {
	g, err := trace.NewGenerator("gzip", 0)
	if err != nil {
		b.Fatal(err)
	}
	insts := g.Interval(20000)
	sim, err := cpu.New(arch.Baseline())
	if err != nil {
		b.Fatal(err)
	}
	src := cpu.NewSliceSource(insts)
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(src, len(insts), cpu.Options{})
		if err != nil {
			b.Fatal(err)
		}
		total += int(res.Committed)
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds()/1e6, "Minst/s")
}

// BenchmarkTraining_Softmax measures training cost on realistic feature
// dimensions: each iteration retrains the fourteen per-parameter models
// on every phase, for both counter sets.
func BenchmarkTraining_Softmax(b *testing.B) {
	ds, _, _, _ := pipeline(b)
	sets := []counters.Set{counters.Advanced, counters.Basic}
	phases := map[counters.Set][]core.PhaseExample{}
	for _, set := range sets {
		for _, id := range ds.Phases {
			f := ds.FeaturesAdv[id]
			if set == counters.Basic {
				f = ds.FeaturesBasic[id]
			}
			phases[set] = append(phases[set], core.PhaseExample{Features: f, Good: ds.Good[id]})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, set := range sets {
			if _, err := core.TrainPredictor(set, phases[set], experiment.TrainOptions()); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkAblation_ModelComparison evaluates the alternative predictors
// the paper's footnote 1 dismisses (nearest neighbour, regression,
// table-driven) under the same LOOCV protocol as the soft-max model.
func BenchmarkAblation_ModelComparison(b *testing.B) {
	ds, _, _, rep := pipeline(b)
	body := fmt.Sprintf("soft-max (paper's model):  %.3fx vs static\n", rep.GeoModelAdvanced)
	builders := []struct {
		name  string
		build func([]altmodel.TrainingPhase) (altmodel.Predictor, error)
	}{
		{"1-NN", func(tr []altmodel.TrainingPhase) (altmodel.Predictor, error) { return altmodel.NewKNN(1, tr) }},
		{"3-NN", func(tr []altmodel.TrainingPhase) (altmodel.Predictor, error) { return altmodel.NewKNN(3, tr) }},
		{"ridge regression", func(tr []altmodel.TrainingPhase) (altmodel.Predictor, error) { return altmodel.NewRidge(0.5, tr) }},
		{"table-driven", func(tr []altmodel.TrainingPhase) (altmodel.Predictor, error) { return altmodel.NewTable(6, tr) }},
	}
	for _, bl := range builders {
		ev, err := ds.EvaluateAltModel(bl.build)
		if err != nil {
			b.Fatal(err)
		}
		r := ds.RatioMean(ds.Phases, ev.Choose())
		body += fmt.Sprintf("%-26s %.3fx vs static\n", bl.name+":", r)
	}
	printReport("Ablation: model comparison", body)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = body
	}
}

// BenchmarkAblation_RuntimeSearch compares the predictive controller
// against a runtime hill-climbing explorer (the prior-work approach the
// paper argues against in §IX: exploration inevitably visits bad
// configurations).
func BenchmarkAblation_RuntimeSearch(b *testing.B) {
	ds, _, _, _ := pipeline(b)
	pred, err := ds.TrainAll(counters.Advanced)
	if err != nil {
		b.Fatal(err)
	}
	const program = "apsi"
	const intervals = 12
	const ivInsts = 6000

	ctlOpts := core.DefaultOptions()
	ctlOpts.Interval = ivInsts
	ctlOpts.SampledSets = 32
	ctlOpts.Start = ds.BestStatic
	ctlOpts.OverheadScale = 0.02
	ctl, err := core.NewController(pred, ctlOpts)
	if err != nil {
		b.Fatal(err)
	}
	g1, err := trace.NewGenerator(program, 0)
	if err != nil {
		b.Fatal(err)
	}
	predictive, err := ctl.Run(g1, intervals)
	if err != nil {
		b.Fatal(err)
	}

	hc, err := core.NewHillClimber(core.HillClimbOptions{
		Interval: ivInsts, Start: ds.BestStatic, Seed: 11, OverheadScale: 0.02,
	})
	if err != nil {
		b.Fatal(err)
	}
	g2, _ := trace.NewGenerator(program, 0)
	searched, err := hc.Run(g2, intervals)
	if err != nil {
		b.Fatal(err)
	}

	body := fmt.Sprintf("predictive controller: eff=%.3e (%d reconfigs, %d profiles)\nhill-climbing search:  eff=%.3e (%d reconfigs)\npredictive/search:     %.2fx",
		predictive.Efficiency, predictive.Reconfigs, predictive.Profiles,
		searched.Efficiency, searched.Reconfigs,
		predictive.Efficiency/searched.Efficiency)
	printReport("Ablation: predictive vs runtime search", body)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = body
	}
}

// BenchmarkExtension_Multicore exercises the paper's future-work direction:
// per-core adaptivity on a chip with shared L2 and memory bandwidth.
func BenchmarkExtension_Multicore(b *testing.B) {
	ds, _, _, _ := pipeline(b)
	pred, err := ds.TrainAll(counters.Advanced)
	if err != nil {
		b.Fatal(err)
	}
	opts := multicore.DefaultOptions()
	opts.Interval = 5000
	opts.Start = ds.BestStatic.With(arch.L2CacheKB, 1024)
	sys, err := multicore.New([]multicore.CoreSpec{
		{Program: "equake"}, {Program: "lucas"}, {Program: "twolf"}, {Program: "mesa"},
	}, pred, opts)
	if err != nil {
		b.Fatal(err)
	}
	rep, err := sys.Run(6)
	if err != nil {
		b.Fatal(err)
	}
	body := ""
	for _, cr := range rep.Cores {
		body += fmt.Sprintf("%-8s final W=%d D$=%dK avgL2=%4.0fK eff=%.3e\n",
			cr.Spec.Program, cr.FinalConfig[arch.Width], cr.FinalConfig[arch.DCacheKB],
			cr.AvgL2QuotaKB, cr.Efficiency)
	}
	body += fmt.Sprintf("heterogeneity: %.2f, contention stretch: %.2fx", rep.Heterogeneity, rep.ContentionStretch)
	printReport("Extension: multicore adaptivity", body)
	b.ReportMetric(rep.Heterogeneity, "heterogeneity")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = body
	}
}

// BenchmarkServe_PredictThroughput boots the model-serving subsystem
// (internal/serve, the §VIII weights-as-a-service deployment) on the
// pipeline's trained predictor and replays a seeded open-loop schedule
// over every phase's profiled features at one fixed offered rate, as
// independent callers would send it. The request counts are
// deterministic for the seed; the latency median and 95th percentile at
// that rate (1000 requests, so 50 beyond the percentile) are the
// measurement.
func BenchmarkServe_PredictThroughput(b *testing.B) {
	ds, _, _, _ := pipeline(b)
	pred, err := ds.TrainAll(counters.Advanced)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := serve.NewEngine(pred, false)
	if err != nil {
		b.Fatal(err)
	}
	srv := serve.New(eng, serve.WithCacheSize(1024), serve.WithMaxInflight(64))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// The pool is every phase's profiled feature vector, in dataset order.
	pool := make([][]float64, 0, len(ds.Phases))
	for _, id := range ds.Phases {
		pool = append(pool, ds.FeaturesAdv[id])
	}
	const rps = 1000
	lg := serve.LoadGen{Requests: 1000, Seed: 2010, Pool: pool, Mode: "open", RPS: rps}

	var rep serve.LoadReport
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err = lg.Run(ts.URL, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if rep.OK != rep.Requests || rep.ServerErr > 0 || rep.Transport > 0 {
		b.Errorf("loadgen saw failures: %+v", rep)
	}
	body := fmt.Sprintf("pool=%d phase feature vectors, seed=2010, open loop at %d req/s\n", len(pool), rps)
	body += fmt.Sprintf("requests=%d ok=%d rejected=%d clientErr=%d serverErr=%d (deterministic)\n",
		rep.Requests, rep.OK, rep.Rejected, rep.ClientErr, rep.ServerErr)
	body += fmt.Sprintf("cache hit rate > 0: %v\n", srv.HitRate() > 0)
	body += fmt.Sprintf("at %d req/s: p50 %v, p95 %v", rps, rep.P50, rep.P95)
	printReport("Serving: predict latency at a fixed rate", body)
	b.ReportMetric(float64(rep.P50.Microseconds()), "p50-us")
	b.ReportMetric(float64(rep.P95.Microseconds()), "p95-us")
}
