// Command report regenerates every table and figure of the paper's
// evaluation at a configurable scale and prints them as text, recording
// the shape comparison DESIGN.md and EXPERIMENTS.md describe. After the
// paper's tables and figures it prints Table I, the ablations of the
// design choices the paper calls out and the multicore extension.
//
// Usage:
//
//	report [-scale test|mid|default] [-programs mcf,swim,...] [-phases N]
//	       [-interval N] [-uniform N] [-cache-dir DIR]
//	       [-trace out.json] [-manifest out.json] [-span-summary]
//	       [-log-json] [-log-level info]
//	       [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// Tables and figures go to stdout; logs (structured, via internal/obs) go
// to stderr — including the result-store statistics, so two runs against
// the same -cache-dir produce byte-identical stdout. -interval keeps the
// preset's warmup-to-interval ratio. With -trace the run's span tree is
// written as Chrome trace_event JSON (open with chrome://tracing or
// ui.perfetto.dev). With -manifest (auto-named manifest-report.json under
// -cache-dir) the run writes a structured JSON manifest whose
// deterministic section replays byte-identically — compare two with
// cmd/obsdiff. -span-summary prints a per-stage self/total time rollup of
// the span tree to stderr.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
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
	"repro/internal/render"
	"repro/internal/store"
	"repro/internal/trace"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		os.Exit(1)
	}
}

// run is the whole command: it parses args, writes the report to stdout
// and logs to stderr. An error is logged before it is returned; a flag
// syntax error is printed by the flag set instead.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scaleName = fs.String("scale", "default", "scale preset: test, mid or default")
		programs  = fs.String("programs", "", "comma-separated benchmark subset (default: preset)")
		phases    = fs.Int("phases", 0, "phases per program (default: preset)")
		interval  = fs.Int("interval", 0, "instructions per phase interval, keeping the preset's warmup ratio (default: preset)")
		uniform   = fs.Int("uniform", 0, "shared uniform samples (default: preset)")
		cacheDir  = fs.String("cache-dir", "", "persistent result-store directory (reused across runs; empty disables)")
		tracePath = fs.String("trace", "", "write a Chrome trace_event JSON of the run to this file")
		manifest  = fs.String("manifest", "", "write a run manifest (deterministic + timing sections) to this file; defaults to manifest-report.json under -cache-dir")
		spanSum   = fs.Bool("span-summary", false, "print a per-stage span time rollup to stderr at exit")
		logJSON   = fs.Bool("log-json", false, "emit logs as JSON instead of text")
		logLevel  = fs.String("log-level", "info", "log level: debug, info, warn or error")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile of the whole run to this file (go tool pprof)")
		memProf   = fs.String("memprofile", "", "write a heap profile at exit to this file (go tool pprof)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	level, levelErr := obs.ParseLevel(*logLevel)
	logger := obs.NewLogger(stderr, *logJSON, level)
	defer func() {
		if err != nil {
			logger.Error("fatal", "err", err)
		}
	}()
	if levelErr != nil {
		return fmt.Errorf("-log-level: %w", levelErr)
	}
	sc, err := experiment.ScaleByName(*scaleName)
	if err != nil {
		return err
	}

	// Both profiles are flushed on the error path too, so a run killed by
	// an error still leaves usable profiles behind.
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			logger.Info("cpu profile written", "path", *cpuProf)
		}()
	}
	if *memProf != "" {
		defer writeHeapProfile(*memProf, logger)
	}

	manifestPath := *manifest
	if manifestPath == "" && *cacheDir != "" {
		manifestPath = filepath.Join(*cacheDir, "manifest-report.json")
	}

	// The manifest and the span summary both need the span tree, so either
	// flag enables the tracer — before the store opens, so the store.open
	// span (argless by design: cold and warm trees must match) is captured.
	// The tracer is process-wide: it starts empty and is left empty.
	tr := obs.DefaultTracer()
	if *tracePath != "" || manifestPath != "" || *spanSum {
		tr.Reset()
		tr.Enable()
		defer func() {
			tr.Disable()
			tr.Reset()
		}()
	}
	if *tracePath != "" {
		defer writeTrace(tr, *tracePath, logger)
	}

	if *programs != "" {
		sc.Programs = strings.Split(*programs, ",")
	}
	if *phases > 0 {
		sc.PhasesPerProgram = *phases
	}
	if *interval > 0 {
		sc.WarmupInsts = sc.WarmupInsts * *interval / sc.IntervalInsts
		sc.IntervalInsts = *interval
	}
	if *uniform > 0 {
		sc.UniformSamples = *uniform
	}

	// Live progress/ETA for the long stages, annotated with the memo and
	// store hit rates so a stalled-looking run is distinguishable from a
	// cache-warm one. st stays nil without -cache-dir, and then only memo
	// rates are reported.
	var st *store.Store
	prog := &obs.Progress{Logger: logger}
	experiment.SetProgress(func(stage string, done, total int) {
		hits, sims := experiment.MemoStats()
		rate := 0.0
		if hits+sims > 0 {
			rate = float64(hits) / float64(hits+sims)
		}
		attrs := []any{"sims", sims, "memoHitRate", fmt.Sprintf("%.2f", rate)}
		if st != nil {
			sh, sm, _, _, _ := store.ProcessStats()
			attrs = append(attrs, "storeHits", sh, "storeMisses", sm)
		}
		prog.Observe(stage, done, total, attrs...)
	})
	defer experiment.SetProgress(nil)

	// The run's clock starts before the store opens, so every root span
	// falls inside totalSeconds.
	start := time.Now()
	insts0 := cpu.SimulatedInstructions()
	if *cacheDir != "" {
		if st, err = store.Open(*cacheDir); err != nil {
			return fmt.Errorf("opening -cache-dir: %w", err)
		}
		defer func() {
			if cerr := st.Close(); cerr != nil && err == nil {
				err = fmt.Errorf("closing -cache-dir: %w", cerr)
			}
		}()
		logger.Info("result store open", "dir", *cacheDir, "records", st.Len())
	}

	logger.Info("building dataset",
		"programs", len(sc.Programs), "phasesPerProgram", sc.PhasesPerProgram,
		"intervalInsts", sc.IntervalInsts, "sharedConfigs", sc.UniformSamples)
	ds, err := experiment.Build(ctx, sc, experiment.WithStore(st))
	if err != nil {
		return err
	}
	logger.Info("dataset built", "simulations", ds.SimCount(),
		"searchSims", experiment.SearchSimCount(),
		"elapsed", time.Since(start).Round(time.Second).String())

	adv, basic, err := writePaper(ctx, stdout, logger, ds)
	if err != nil {
		return err
	}

	hits, sims := experiment.MemoStats()
	logger.Info("done", "elapsed", time.Since(start).Round(time.Second).String(),
		"simulations", sims, "memoHits", hits)
	if st != nil {
		s := st.Stats()
		rate := 0.0
		if s.Hits+s.Misses > 0 {
			rate = float64(s.Hits) / float64(s.Hits+s.Misses)
		}
		logger.Info("store stats", "dir", *cacheDir,
			"storeHits", s.Hits, "storeMisses", s.Misses,
			"storeHitRate", fmt.Sprintf("%.2f", rate),
			"records", s.Records, "bytesRead", s.BytesRead, "bytesWritten", s.BytesWritten,
			"dropped", s.Dropped, "compactions", s.Compactions)
	}
	if *spanSum {
		fmt.Fprintln(stderr, "span summary (self = own time, total = subtree, stage = first name token):")
		tr.WriteRollup(stderr)
	}
	if manifestPath != "" {
		m := obs.NewManifest("report")
		m.SetDet("flags.scale", *scaleName)
		experiment.FillBuildManifest(m, ds)
		experiment.FillEvalManifest(m, adv)
		experiment.FillEvalManifest(m, basic)
		tr.FillManifest(m)
		elapsed := time.Since(start).Seconds()
		m.SetTiming("totalSeconds", elapsed)
		// Root spans run one after another and nest everything else, so
		// their summed duration is the traced share of the run.
		m.SetTiming("unattributedSeconds", elapsed-tr.RootSeconds())
		if insts := cpu.SimulatedInstructions() - insts0; insts > 0 {
			m.SetTiming("nsPerInst", elapsed*1e9/float64(insts))
		}
		if st != nil {
			st.Stats().FillManifest(m, elapsed)
		}
		if err := m.WriteFile(manifestPath); err != nil {
			return err
		}
		logger.Info("manifest written", "path", manifestPath)
	}
	return nil
}

// writeTrace writes the tracer's spans as Chrome trace_event JSON.
func writeTrace(tr *obs.Tracer, path string, logger *slog.Logger) {
	f, err := os.Create(path)
	if err != nil {
		logger.Error("creating trace file", "err", err)
		return
	}
	defer f.Close()
	if err := tr.WriteChrome(f); err != nil {
		logger.Error("writing trace", "err", err)
		return
	}
	logger.Info("trace written", "path", path, "spans", tr.SpanCount())
}

// writeHeapProfile writes a heap profile of the live data at exit.
func writeHeapProfile(path string, logger *slog.Logger) {
	f, err := os.Create(path)
	if err != nil {
		logger.Error("creating heap profile", "err", err)
		return
	}
	defer f.Close()
	runtime.GC() // settle the heap so the profile shows live data
	if err := pprof.WriteHeapProfile(f); err != nil {
		logger.Error("writing heap profile", "err", err)
		return
	}
	logger.Info("heap profile written", "path", path)
}

// writePaper prints every section of the report in order and returns the
// two leave-one-out evaluations the manifest records.
func writePaper(ctx context.Context, w io.Writer, logger *slog.Logger, ds *experiment.Dataset) (adv, basic *experiment.Evaluation, err error) {
	fmt.Fprintln(w, ds.TableIII().Render())

	logger.Info("evaluating model", "method", "LOOCV", "counters", "advanced")
	if adv, err = ds.EvaluateModelCtx(ctx, counters.Advanced); err != nil {
		return nil, nil, err
	}
	logger.Info("evaluating model", "method", "LOOCV", "counters", "basic")
	if basic, err = ds.EvaluateModelCtx(ctx, counters.Basic); err != nil {
		return nil, nil, err
	}
	suite := ds.Suite(adv, basic)
	fmt.Fprintln(w, suite.Render())

	// Figure 4 as bars, like the paper's chart.
	var bars []render.Bar
	for _, row := range suite.Rows {
		bars = append(bars, render.Bar{Label: row.Program, Value: row.ModelAdvanced})
	}
	bars = append(bars, render.Bar{Label: "GEOMEAN", Value: suite.GeoModelAdvanced})
	fmt.Fprintln(w, render.BarChart("Figure 4 (advanced counters, ratio vs best static; | marks 1.0):", bars, 46, 1))

	limitBars := []render.Bar{
		{Label: "model", Value: suite.GeoModelAdvanced},
		{Label: "per-program", Value: suite.GeoPerProgram},
		{Label: "oracle", Value: suite.GeoOracle},
	}
	fmt.Fprintln(w, render.BarChart("Figure 6 (limit study, geomean ratios):", limitBars, 46, 1))

	fig7, err := ds.Figure7(adv)
	if err != nil {
		return nil, nil, err
	}
	fmt.Fprintln(w, fig7.Render())

	for _, p := range []arch.Param{arch.Width, arch.IQSize, arch.ICacheKB} {
		fmt.Fprintln(w, ds.Figure8(p).Render())
	}

	var fig3Phases []experiment.PhaseID
	for _, prog := range []string{"mgrid", "swim", "parser", "vortex"} {
		if phases := ds.ProgramPhases(prog); len(phases) > 0 {
			fig3Phases = append(fig3Phases, phases[0])
		}
	}
	if len(fig3Phases) > 0 {
		fig3, err := ds.Figure3(fig3Phases)
		if err != nil {
			return nil, nil, err
		}
		fmt.Fprintln(w, fig3.Render())
	}

	// Implementation analysis: Table V, Figure 9, model storage.
	fmt.Fprintln(w, "Table V: reconfiguration overheads (cycles)")
	for _, row := range core.TableV() {
		fmt.Fprintf(w, "  %-8s %8d\n", row.Structure, row.Cycles)
	}
	fmt.Fprintln(w)

	rows, err := core.Figure9(power.New(arch.Profiling()))
	if err != nil {
		return nil, nil, err
	}
	fmt.Fprintln(w, "Figure 9: profiling energy overheads (% of cache energy)")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-7s %-12s sets=%4d/%-5d dynamic=%.2f%% leakage=%.2f%%\n",
			r.Cache, r.Feature, r.SampledSets, r.TotalSets,
			r.Overhead.DynamicPct, r.Overhead.LeakagePct)
	}
	fmt.Fprintln(w)

	for _, set := range []counters.Set{counters.Basic, counters.Advanced} {
		st, err := ds.StorageAnalysis(set)
		if err != nil {
			return nil, nil, err
		}
		fmt.Fprint(w, st.Render())
	}
	fmt.Fprintln(w)

	logger.Info("running Table IV sampling sweep")
	t4, err := ds.TableIV([]int{4, 16, 64, 256}, 12)
	if err != nil {
		return nil, nil, err
	}
	fmt.Fprintln(w, t4.Render())

	logger.Info("running Figure 1 sweeps")
	for _, prog := range []string{"gap", "applu", "apsi"} {
		f1, err := ds.Figure1(prog)
		if err != nil {
			return nil, nil, err
		}
		fmt.Fprintln(w, f1.Render())
		var iq8, iq4 []float64
		for _, pt := range f1.Points {
			iq8 = append(iq8, float64(pt.BestIQ[8]))
			iq4 = append(iq4, float64(pt.BestIQ[4]))
		}
		fmt.Fprintf(w, "  IQ(w=8) over time: %s\n  IQ(w=4) over time: %s\n\n",
			render.Sparkline(iq8), render.Sparkline(iq4))
	}

	fmt.Fprintln(w, "Table I: design space")
	for p := arch.Param(0); p < arch.NumParams; p++ {
		fmt.Fprintf(w, "%-10s %v (%d values)\n", p, arch.Domain(p), arch.DomainSize(p))
	}
	fmt.Fprintf(w, "total design points: %d (paper: 627bn)\n\n", arch.SpaceSize())

	logger.Info("running ablations")
	if err := writeAblations(ctx, w, ds, suite); err != nil {
		return nil, nil, err
	}
	return adv, basic, nil
}

// writeAblations prints the ablations of the design choices the paper
// calls out (§IX, §X) and the multicore extension. They share one
// advanced predictor trained on every phase. The controller, the
// hill-climber and the multicore system simulate live, outside the
// dataset and its store, each under its own root span.
func writeAblations(ctx context.Context, w io.Writer, ds *experiment.Dataset, suite experiment.SuiteReport) error {
	// Counter families: the efficiency each Table II family is worth,
	// removed one at a time from the advanced set.
	fmt.Fprintln(w, "Ablation: counter families")
	fmt.Fprintf(w, "full advanced set:  %.3fx vs static\n", suite.GeoModelAdvanced)
	for _, fam := range []string{"caches/", "queues/", "rf/", "width/", "bpred/"} {
		ev, err := ds.EvaluateModelAblated(fam)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "without %-9s %.3fx\n", fam, ds.RatioMean(ds.Phases, ev.Choose()))
	}
	fmt.Fprintln(w)

	// 8 bits: the hardware predictor against the float model.
	pred, err := ds.TrainAllCtx(ctx, counters.Advanced)
	if err != nil {
		return err
	}
	q := pred.Quantize()
	qRatio := ds.RatioMean(ds.Phases, func(id experiment.PhaseID) arch.Config {
		return q.Predict(ds.FeaturesAdv[id])
	})
	fmt.Fprintln(w, "Ablation: 8-bit quantisation")
	fmt.Fprintf(w, "LOOCV float model:        %.3fx vs static\n", suite.GeoModelAdvanced)
	fmt.Fprintf(w, "8-bit train-on-all model: %.3fx vs static (not held out)\n", qRatio)
	fmt.Fprintf(w, "storage: %d bytes\n\n", q.StorageBytes())

	// runController runs the predictive controller from the best static
	// configuration over 6,000-instruction intervals of a program's first
	// phase, with set adjusting its options.
	runController := func(program string, intervals int, set func(*core.Options)) (*core.Report, error) {
		defer obs.DefaultTracer().Start("core.controller " + program).Finish()
		opts := core.DefaultOptions()
		opts.Interval = 6000
		opts.SampledSets = 32
		opts.Start = ds.BestStatic
		set(&opts)
		ctl, err := core.NewController(pred, opts)
		if err != nil {
			return nil, err
		}
		g, err := trace.NewGenerator(program, 0)
		if err != nil {
			return nil, err
		}
		return ctl.Run(g, intervals)
	}

	// Cadence: adapting everything per phase change against reconfiguring
	// caches only every other event (the paper's future-work direction).
	full, err := runController("galgel", 8, func(*core.Options) {})
	if err != nil {
		return err
	}
	lazy, err := runController("galgel", 8, func(o *core.Options) { o.Cadence = core.EveryNth(2) })
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Ablation: cadence policy")
	fmt.Fprintf(w, "adapt everything:        eff=%.3e, %d reconfigs\n", full.Efficiency, full.Reconfigs)
	fmt.Fprintf(w, "caches every 2nd event:  eff=%.3e, %d reconfigs\n\n", lazy.Efficiency, lazy.Reconfigs)

	// Model comparison: the alternatives the paper's footnote 1 dismisses,
	// under the soft-max model's leave-one-out protocol.
	fmt.Fprintln(w, "Ablation: model comparison")
	fmt.Fprintf(w, "soft-max (paper's model):  %.3fx vs static\n", suite.GeoModelAdvanced)
	for _, alt := range []struct {
		name  string
		build func([]altmodel.TrainingPhase) (altmodel.Predictor, error)
	}{
		{"1-NN", func(tr []altmodel.TrainingPhase) (altmodel.Predictor, error) { return altmodel.NewKNN(1, tr) }},
		{"3-NN", func(tr []altmodel.TrainingPhase) (altmodel.Predictor, error) { return altmodel.NewKNN(3, tr) }},
		{"ridge regression", func(tr []altmodel.TrainingPhase) (altmodel.Predictor, error) { return altmodel.NewRidge(0.5, tr) }},
		{"table-driven", func(tr []altmodel.TrainingPhase) (altmodel.Predictor, error) { return altmodel.NewTable(6, tr) }},
	} {
		ev, err := ds.EvaluateAltModel(alt.build)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-26s %.3fx vs static\n", alt.name+":", ds.RatioMean(ds.Phases, ev.Choose()))
	}
	fmt.Fprintln(w)

	// Runtime search: the predictive controller against a hill-climbing
	// explorer, the prior-work approach §IX argues against.
	const searchProgram, searchIntervals = "apsi", 12
	predictive, err := runController(searchProgram, searchIntervals, func(o *core.Options) { o.OverheadScale = 0.02 })
	if err != nil {
		return err
	}
	searched, err := func() (*core.Report, error) {
		defer obs.DefaultTracer().Start("core.hillclimb").Finish()
		hc, err := core.NewHillClimber(core.HillClimbOptions{
			Interval: 6000, Start: ds.BestStatic, Seed: 11, OverheadScale: 0.02,
		})
		if err != nil {
			return nil, err
		}
		g, err := trace.NewGenerator(searchProgram, 0)
		if err != nil {
			return nil, err
		}
		return hc.Run(g, searchIntervals)
	}()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Ablation: predictive vs runtime search")
	fmt.Fprintf(w, "predictive controller: eff=%.3e (%d reconfigs, %d profiles)\n",
		predictive.Efficiency, predictive.Reconfigs, predictive.Profiles)
	fmt.Fprintf(w, "hill-climbing search:  eff=%.3e (%d reconfigs)\n", searched.Efficiency, searched.Reconfigs)
	fmt.Fprintf(w, "predictive/search:     %.2fx\n\n", predictive.Efficiency/searched.Efficiency)

	// Multicore: per-core adaptivity on a chip with a shared L2 and
	// memory bandwidth.
	mc, err := func() (*multicore.Report, error) {
		defer obs.DefaultTracer().Start("multicore.run").Finish()
		mcOpts := multicore.DefaultOptions()
		mcOpts.Interval = 5000
		mcOpts.Start = ds.BestStatic.With(arch.L2CacheKB, 1024)
		sys, err := multicore.New([]multicore.CoreSpec{
			{Program: "equake"}, {Program: "lucas"}, {Program: "twolf"}, {Program: "mesa"},
		}, pred, mcOpts)
		if err != nil {
			return nil, err
		}
		return sys.Run(6)
	}()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Extension: multicore adaptivity")
	for _, cr := range mc.Cores {
		fmt.Fprintf(w, "%-8s final W=%d D$=%dK avgL2=%4.0fK eff=%.3e\n",
			cr.Spec.Program, cr.FinalConfig[arch.Width], cr.FinalConfig[arch.DCacheKB],
			cr.AvgL2QuotaKB, cr.Efficiency)
	}
	fmt.Fprintf(w, "heterogeneity: %.2f, contention stretch: %.2fx\n\n", mc.Heterogeneity, mc.ContentionStretch)
	return nil
}
