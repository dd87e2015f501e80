// Command adaptsim runs the paper's adaptive processor end to end: it
// trains the predictive model on the benchmark suite, then executes a
// chosen program under the runtime controller (monitor -> profile ->
// predict -> reconfigure, Figure 2 of the paper), printing one line per
// monitoring interval plus the final energy-efficiency comparison against
// the best static configuration.
//
// Usage:
//
//	adaptsim [-program mcf] [-intervals 20] [-interval-insts 20000]
//	         [-counter-set advanced|basic] [-cadence N] [-cache-dir DIR]
//
// With -cache-dir, the training dataset is built against the persistent
// simulation-result store (internal/store), so repeated adaptsim runs —
// even for different -program values, which train on overlapping
// benchmark subsets — reuse each other's simulations. A warm store
// replays the build without simulating, and retraining yields the same
// predictor and best static configuration as the first run.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/cpu"
	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/trace"
)

func main() {
	var (
		program   = flag.String("program", "mcf", "benchmark to run under the controller")
		intervals = flag.Int("intervals", 20, "monitoring intervals to execute")
		ivInsts   = flag.Int("interval-insts", 20000, "instructions per monitoring interval")
		setName   = flag.String("counter-set", "advanced", "counter set: advanced or basic")
		cadence   = flag.Int("cadence", 0, "if > 0, caches adapt only every Nth reconfiguration")
		ovScale   = flag.Float64("overhead-scale", 0.02, "reconfiguration overhead scale (1 = paper-absolute)")
		cacheDir  = flag.String("cache-dir", "", "persistent simulation-result store for the training build (empty disables)")
		logJSON   = flag.Bool("log-json", false, "emit logs as JSON instead of text")
		logLevel  = flag.String("log-level", "info", "log level: debug, info, warn or error")
	)
	flag.Parse()
	logger := obs.NewLogger(os.Stderr, *logJSON, obs.ParseLevel(*logLevel))
	die := func(err error) {
		logger.Error("fatal", "err", err)
		os.Exit(1)
	}
	if !trace.IsBenchmark(*program) {
		die(fmt.Errorf("unknown benchmark %q (choose from %v)", *program, trace.Benchmarks()))
	}
	var set counters.Set
	switch *setName {
	case "advanced":
		set = counters.Advanced
	case "basic":
		set = counters.Basic
	default:
		die(fmt.Errorf("unknown -counter-set %q (want advanced or basic)", *setName))
	}

	// Train on a scaled dataset that excludes the target program —
	// honest held-out prediction, as in the paper's evaluation.
	sc := experiment.DefaultScale()
	sc.PhasesPerProgram = 3
	var progs []string
	for _, p := range trace.Benchmarks() {
		if p != *program {
			progs = append(progs, p)
		}
	}
	sc.Programs = progs
	var st *store.Store
	if *cacheDir != "" {
		var err error
		if st, err = store.Open(*cacheDir); err != nil {
			die(fmt.Errorf("opening -cache-dir: %w", err))
		}
		defer st.Close()
		logger.Info("result store open", "dir", *cacheDir, "records", st.Len())
	}
	logger.Info("building training dataset", "programs", len(progs), "phasesPerProgram", sc.PhasesPerProgram)
	prog := &obs.Progress{Logger: logger}
	experiment.SetProgress(func(stage string, done, total int) {
		prog.Observe(stage, done, total)
	})
	ds, err := experiment.Build(context.Background(), sc, experiment.WithStore(st))
	if err != nil {
		die(err)
	}
	experiment.SetProgress(nil)
	if st != nil {
		s := st.Stats()
		logger.Info("store stats", "storeHits", s.Hits, "storeMisses", s.Misses,
			"records", s.Records, "bytesWritten", s.BytesWritten)
	}
	logger.Info("training predictor", "counters", set.String())
	pred, err := ds.TrainAll(set)
	if err != nil {
		die(err)
	}
	bestStatic := ds.BestStatic

	opts := core.DefaultOptions()
	opts.Interval = *ivInsts
	opts.SampledSets = sc.SampledSets
	opts.Start = bestStatic
	opts.Threshold = 0.6
	// Table V overheads are absolute; intervals here are ~1000x shorter
	// than the paper's, so scale the overheads correspondingly.
	opts.OverheadScale = *ovScale
	if *cadence > 0 {
		opts.Cadence = core.EveryNth(*cadence)
	}
	ctl, err := core.NewController(pred, opts)
	if err != nil {
		die(err)
	}

	g, err := trace.NewGenerator(*program, 0)
	if err != nil {
		die(err)
	}
	src := &phaseWalker{program: *program, gen: g, perPhase: max(1, *intervals/trace.PhasesPerProgram**ivInsts)}

	logger.Info("running controller", "program", *program, "intervals", *intervals, "intervalInsts", *ivInsts)
	rep, err := ctl.Run(src, *intervals)
	if err != nil {
		die(err)
	}
	for _, r := range rep.Records {
		tag := " "
		if r.Profiled {
			tag = "P"
		}
		ch := " "
		if r.PhaseChange {
			ch = "*"
		}
		fmt.Printf("interval %3d %s%s cycles=%7d  E=%8.2eJ  eff=%9.3e  cfg: W=%d ROB=%d IQ=%d D$=%dK L2=%dK FO4=%d\n",
			r.Index, tag, ch, r.Cycles, r.EnergyJ, r.Efficiency,
			r.Config[arch.Width], r.Config[arch.ROBSize], r.Config[arch.IQSize],
			r.Config[arch.DCacheKB], r.Config[arch.L2CacheKB], r.Config[arch.DepthFO4])
	}
	fmt.Printf("\ncontroller: %d phase changes, %d profiles, %d reconfigurations\n",
		rep.PhaseChanges, rep.Profiles, rep.Reconfigs)
	fmt.Printf("aggregate: %.3e ips, %.1f W, efficiency %.3e ips^3/W\n", rep.IPS, rep.Watts, rep.Efficiency)

	// Static reference: run the same stream on the best static config.
	g2, _ := trace.NewGenerator(*program, 0)
	src2 := &phaseWalker{program: *program, gen: g2, perPhase: src.perPhase}
	sim, err := cpu.New(bestStatic)
	if err != nil {
		die(err)
	}
	res, err := sim.Run(src2, *intervals**ivInsts, cpu.Options{})
	if err != nil {
		die(err)
	}
	fmt.Printf("best static (%v):\n  efficiency %.3e ips^3/W\n", bestStatic, res.Efficiency)
	if res.Efficiency > 0 {
		fmt.Printf("adaptive / static efficiency ratio: %.2fx\n", rep.Efficiency/res.Efficiency)
	}
}

// phaseWalker streams a program's phases in order, advancing to the next
// phase every perPhase instructions, emulating a whole-program run.
type phaseWalker struct {
	program  string
	gen      *trace.Generator
	perPhase int
	n        int
	phase    int
}

// Next returns the next instruction, switching phases periodically.
func (w *phaseWalker) Next() trace.Inst {
	if w.n >= w.perPhase && w.phase < trace.PhasesPerProgram-1 {
		w.phase++
		w.n = 0
		g, err := trace.NewGenerator(w.program, w.phase)
		if err == nil {
			w.gen = g
		}
	}
	w.n++
	return w.gen.Next()
}
