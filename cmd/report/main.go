// Command report regenerates every table and figure of the paper's
// evaluation at a configurable scale and prints them as text, recording
// the shape comparison DESIGN.md and EXPERIMENTS.md describe.
//
// Usage:
//
//	report [-scale test|default] [-programs mcf,swim,...] [-phases N]
//	       [-interval N] [-uniform N] [-cache-dir DIR]
//	       [-trace out.json] [-manifest out.json] [-span-summary]
//	       [-log-json] [-log-level info]
//	       [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// Tables and figures go to stdout; logs (structured, via internal/obs) go
// to stderr — including the result-store statistics, so two runs against
// the same -cache-dir produce byte-identical stdout. With -trace the
// run's span tree is written as Chrome trace_event JSON (open with
// chrome://tracing or ui.perfetto.dev). With -manifest (auto-named
// manifest-report.json under -cache-dir) the run writes a structured JSON
// manifest whose deterministic section replays byte-identically — compare
// two with cmd/obsdiff. -span-summary prints a per-stage self/total time
// rollup of the span tree to stderr.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/cpu"
	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/render"
	"repro/internal/store"
)

func main() {
	var (
		scaleName = flag.String("scale", "default", "test or default scale preset")
		programs  = flag.String("programs", "", "comma-separated benchmark subset (default: preset)")
		phases    = flag.Int("phases", 0, "phases per program (default: preset)")
		interval  = flag.Int("interval", 0, "instructions per phase interval (default: preset)")
		uniform   = flag.Int("uniform", 0, "shared uniform samples (default: preset)")
		cacheDir  = flag.String("cache-dir", "", "persistent result-store directory (reused across runs; empty disables)")
		tracePath = flag.String("trace", "", "write a Chrome trace_event JSON of the run to this file")
		manifest  = flag.String("manifest", "", "write a run manifest (deterministic + timing sections) to this file; defaults to manifest-report.json under -cache-dir")
		spanSum   = flag.Bool("span-summary", false, "print a per-stage span time rollup to stderr at exit")
		logJSON   = flag.Bool("log-json", false, "emit logs as JSON instead of text")
		logLevel  = flag.String("log-level", "info", "log level: debug, info, warn or error")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file (go tool pprof)")
		memProf   = flag.String("memprofile", "", "write a heap profile at exit to this file (go tool pprof)")
	)
	flag.Parse()

	logger := obs.NewLogger(os.Stderr, *logJSON, obs.ParseLevel(*logLevel))

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			logger.Error("fatal", "err", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			logger.Error("fatal", "err", err)
			os.Exit(1)
		}
	}
	// stopProfiles flushes both profiles; it runs on the fatal path too, so
	// a run killed by an error still leaves usable profiles behind.
	stopProfiles := func() {
		if *cpuProf != "" {
			pprof.StopCPUProfile()
			logger.Info("cpu profile written", "path", *cpuProf)
		}
		if *memProf != "" {
			f, err := os.Create(*memProf)
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
			logger.Info("heap profile written", "path", *memProf)
		}
	}

	manifestPath := *manifest
	if manifestPath == "" && *cacheDir != "" {
		manifestPath = filepath.Join(*cacheDir, "manifest-report.json")
	}

	// The manifest and the span summary both need the span tree, so either
	// flag enables the tracer — before the store opens, so the store.open
	// span (argless by design: cold and warm trees must match) is captured.
	tr := obs.DefaultTracer()
	if *tracePath != "" || manifestPath != "" || *spanSum {
		tr.Enable()
	}
	writeTrace := func() {
		if *tracePath == "" {
			return
		}
		f, err := os.Create(*tracePath)
		if err != nil {
			logger.Error("creating trace file", "err", err)
			return
		}
		defer f.Close()
		if err := tr.WriteChrome(f); err != nil {
			logger.Error("writing trace", "err", err)
			return
		}
		logger.Info("trace written", "path", *tracePath, "spans", tr.SpanCount())
	}
	die := func(err error) {
		logger.Error("fatal", "err", err)
		writeTrace()
		stopProfiles()
		os.Exit(1)
	}

	sc := experiment.DefaultScale()
	if *scaleName == "test" {
		sc = experiment.TestScale()
	}
	if *programs != "" {
		sc.Programs = strings.Split(*programs, ",")
	}
	if *phases > 0 {
		sc.PhasesPerProgram = *phases
	}
	if *interval > 0 {
		sc.IntervalInsts = *interval
		sc.WarmupInsts = *interval / 2
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

	if *cacheDir != "" {
		var err error
		if st, err = store.Open(*cacheDir); err != nil {
			die(fmt.Errorf("opening -cache-dir: %w", err))
		}
		defer st.Close()
		logger.Info("result store open", "dir", *cacheDir, "records", st.Len())
	}

	start := time.Now()
	logger.Info("building dataset",
		"programs", len(sc.Programs), "phasesPerProgram", sc.PhasesPerProgram,
		"intervalInsts", sc.IntervalInsts, "sharedConfigs", sc.UniformSamples)
	ds, err := experiment.Build(context.Background(), sc, experiment.WithStore(st))
	if err != nil {
		die(err)
	}
	logger.Info("dataset built", "simulations", ds.SimCount(),
		"searchSims", experiment.SearchSimCount(),
		"elapsed", time.Since(start).Round(time.Second).String())

	fmt.Println(ds.TableIII().Render())

	logger.Info("evaluating model", "method", "LOOCV", "counters", "advanced")
	adv, err := ds.EvaluateModel(counters.Advanced)
	if err != nil {
		die(err)
	}
	logger.Info("evaluating model", "method", "LOOCV", "counters", "basic")
	basic, err := ds.EvaluateModel(counters.Basic)
	if err != nil {
		die(err)
	}
	suite := ds.Suite(adv, basic)
	fmt.Println(suite.Render())

	// Figure 4 as bars, like the paper's chart.
	var bars []render.Bar
	for _, row := range suite.Rows {
		bars = append(bars, render.Bar{Label: row.Program, Value: row.ModelAdvanced})
	}
	bars = append(bars, render.Bar{Label: "GEOMEAN", Value: suite.GeoModelAdvanced})
	fmt.Println(render.BarChart("Figure 4 (advanced counters, ratio vs best static; | marks 1.0):", bars, 46, 1))

	var limitBars []render.Bar
	limitBars = append(limitBars,
		render.Bar{Label: "model", Value: suite.GeoModelAdvanced},
		render.Bar{Label: "per-program", Value: suite.GeoPerProgram},
		render.Bar{Label: "oracle", Value: suite.GeoOracle},
	)
	fmt.Println(render.BarChart("Figure 6 (limit study, geomean ratios):", limitBars, 46, 1))

	fig7, err := ds.Figure7(adv)
	if err != nil {
		die(err)
	}
	fmt.Println(fig7.Render())

	for _, p := range []arch.Param{arch.Width, arch.IQSize, arch.ICacheKB} {
		fmt.Println(ds.Figure8(p).Render())
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
			die(err)
		}
		fmt.Println(fig3.Render())
	}

	// Implementation analysis: Table V, Figure 9, model storage.
	fmt.Println("Table V: reconfiguration overheads (cycles)")
	for _, row := range core.TableV() {
		fmt.Printf("  %-8s %8d\n", row.Structure, row.Cycles)
	}
	fmt.Println()

	rows, err := core.Figure9(power.New(arch.Profiling()))
	if err != nil {
		die(err)
	}
	fmt.Println("Figure 9: profiling energy overheads (% of cache energy)")
	for _, r := range rows {
		fmt.Printf("  %-7s %-12s sets=%4d/%-5d dynamic=%.2f%% leakage=%.2f%%\n",
			r.Cache, r.Feature, r.SampledSets, r.TotalSets,
			r.Overhead.DynamicPct, r.Overhead.LeakagePct)
	}
	fmt.Println()

	for _, set := range []counters.Set{counters.Basic, counters.Advanced} {
		st, err := ds.StorageAnalysis(set)
		if err != nil {
			die(err)
		}
		fmt.Print(st.Render())
	}
	fmt.Println()

	logger.Info("running Table IV sampling sweep")
	t4, err := ds.TableIV([]int{4, 16, 64, 256}, 12)
	if err != nil {
		die(err)
	}
	fmt.Println(t4.Render())

	logger.Info("running Figure 1 sweeps")
	for _, prog := range []string{"gap", "applu", "apsi"} {
		f1, err := ds.Figure1(prog)
		if err != nil {
			die(err)
		}
		fmt.Println(f1.Render())
		var iq8, iq4 []float64
		for _, pt := range f1.Points {
			iq8 = append(iq8, float64(pt.BestIQ[8]))
			iq4 = append(iq4, float64(pt.BestIQ[4]))
		}
		fmt.Printf("  IQ(w=8) over time: %s\n  IQ(w=4) over time: %s\n\n",
			render.Sparkline(iq8), render.Sparkline(iq4))
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
		fmt.Fprintln(os.Stderr, "span summary (self = own time, total = subtree, stage = first name token):")
		tr.WriteRollup(os.Stderr)
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
		if insts := cpu.SimulatedInstructions(); insts > 0 {
			m.SetTiming("nsPerInst", elapsed*1e9/float64(insts))
		}
		if st != nil {
			st.Stats().FillManifest(m, elapsed)
		}
		if err := m.WriteFile(manifestPath); err != nil {
			die(err)
		}
		logger.Info("manifest written", "path", manifestPath)
	}
	writeTrace()
	stopProfiles()
}
