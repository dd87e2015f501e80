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
//	         [-counter-set advanced|basic] [-cadence N] [-overhead-scale 0.02]
//	         [-cache-dir DIR] [-log-json] [-log-level info]
//
// The program walks its phases in order, -intervals/10 intervals per
// phase (at least one), so a run of fewer than ten intervals visits only
// the first -intervals phases.
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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"

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
	if err := run(context.Background(), os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		os.Exit(1)
	}
}

// trainingScale is the scale of the training dataset before the target
// program is held out of it: the full suite at three phases per program.
var trainingScale = func() experiment.Scale {
	sc := experiment.DefaultScale()
	sc.PhasesPerProgram = 3
	return sc
}

// run is the whole command: it parses args, writes the interval trace and
// the comparison to stdout and logs to stderr. An error is logged before
// it is returned; a flag syntax error is printed by the flag set instead.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("adaptsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		program   = fs.String("program", "mcf", "benchmark to run under the controller")
		intervals = fs.Int("intervals", 20, "monitoring intervals to execute")
		ivInsts   = fs.Int("interval-insts", 20000, "instructions per monitoring interval")
		setName   = fs.String("counter-set", "advanced", "counter set: advanced or basic")
		cadence   = fs.Int("cadence", 0, "if > 0, caches adapt only every Nth reconfiguration")
		ovScale   = fs.Float64("overhead-scale", 0.02, "reconfiguration overhead scale (1 = paper-absolute)")
		cacheDir  = fs.String("cache-dir", "", "persistent simulation-result store for the training build (empty disables)")
		logJSON   = fs.Bool("log-json", false, "emit logs as JSON instead of text")
		logLevel  = fs.String("log-level", "info", "log level: debug, info, warn or error")
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
	switch {
	case levelErr != nil:
		return fmt.Errorf("-log-level: %w", levelErr)
	case *intervals <= 0:
		return fmt.Errorf("-intervals %d: want > 0", *intervals)
	case *ivInsts <= 0:
		return fmt.Errorf("-interval-insts %d: want > 0", *ivInsts)
	case *cadence < 0:
		return fmt.Errorf("-cadence %d: want >= 0", *cadence)
	case *ovScale < 0:
		return fmt.Errorf("-overhead-scale %v: want >= 0", *ovScale)
	case !trace.IsBenchmark(*program):
		return fmt.Errorf("unknown benchmark %q (choose from %v)", *program, trace.Benchmarks())
	}
	set, err := counters.ParseSet(*setName)
	if err != nil {
		return fmt.Errorf("-counter-set: %w", err)
	}

	// Train on a dataset that excludes the target program — honest
	// held-out prediction, as in the paper's evaluation.
	sc := trainingScale()
	sc.Programs = slices.DeleteFunc(slices.Clone(sc.Programs), func(p string) bool { return p == *program })
	var st *store.Store
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
	logger.Info("building training dataset", "programs", len(sc.Programs), "phasesPerProgram", sc.PhasesPerProgram)
	prog := &obs.Progress{Logger: logger}
	experiment.SetProgress(func(stage string, done, total int) {
		prog.Observe(stage, done, total)
	})
	defer experiment.SetProgress(nil)
	ds, err := experiment.Build(ctx, sc, experiment.WithStore(st))
	if err != nil {
		return err
	}
	if st != nil {
		s := st.Stats()
		logger.Info("store stats", "storeHits", s.Hits, "storeMisses", s.Misses,
			"records", s.Records, "bytesWritten", s.BytesWritten)
	}
	logger.Info("training predictor", "counters", set.String())
	pred, err := ds.TrainAllCtx(ctx, set)
	if err != nil {
		return err
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
		return err
	}

	logger.Info("running controller", "program", *program, "intervals", *intervals, "intervalInsts", *ivInsts)
	rep, err := ctl.Run(newPhaseWalker(*program, *intervals, *ivInsts), *intervals)
	if err != nil {
		return err
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
		fmt.Fprintf(stdout, "interval %3d %s%s cycles=%7d  E=%8.2eJ  eff=%9.3e  cfg: W=%d ROB=%d IQ=%d D$=%dK L2=%dK FO4=%d\n",
			r.Index, tag, ch, r.Cycles, r.EnergyJ, r.Efficiency,
			r.Config[arch.Width], r.Config[arch.ROBSize], r.Config[arch.IQSize],
			r.Config[arch.DCacheKB], r.Config[arch.L2CacheKB], r.Config[arch.DepthFO4])
	}
	fmt.Fprintf(stdout, "\ncontroller: %d phase changes, %d profiles, %d reconfigurations\n",
		rep.PhaseChanges, rep.Profiles, rep.Reconfigs)
	fmt.Fprintf(stdout, "aggregate: %.3e ips, %.1f W, efficiency %.3e ips^3/W\n", rep.IPS, rep.Watts, rep.Efficiency)

	// Static reference: run the same stream on the best static config.
	sim, err := cpu.New(bestStatic)
	if err != nil {
		return err
	}
	res, err := sim.Run(newPhaseWalker(*program, *intervals, *ivInsts), *intervals**ivInsts, cpu.Options{})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "best static (%v):\n  efficiency %.3e ips^3/W\n", bestStatic, res.Efficiency)
	if res.Efficiency > 0 {
		fmt.Fprintf(stdout, "adaptive / static efficiency ratio: %.2fx\n", rep.Efficiency/res.Efficiency)
	}
	return nil
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

// newPhaseWalker walks program's phases over a run of intervals
// intervals of ivInsts instructions each: intervals/10 whole intervals
// per phase, at least one. program must be a benchmark.
func newPhaseWalker(program string, intervals, ivInsts int) *phaseWalker {
	g, err := trace.NewGenerator(program, 0)
	if err != nil {
		panic(err) // run checked trace.IsBenchmark
	}
	return &phaseWalker{program: program, gen: g, perPhase: max(1, intervals/trace.PhasesPerProgram) * ivInsts}
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
