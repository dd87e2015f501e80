// Command perfbench is the repository's end-to-end benchmark. Each run
// measures one workload in its own process for a fixed time and prints one
// JSON result line:
//
//	perfbench -workload build-mid|serve-open -seed N -seconds S -trace 0|1
//
// With -trace 0 the result carries the end-to-end metrics; with -trace 1 a
// traced run times every call the benchmark makes into the repository's
// packages and reports the per-layer metrics instead. See README.md for
// what each workload measures and why.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metricDef is one metric the benchmark reports: its name and unit, exactly
// as BENCHMARK.json lists them.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the untraced metrics, reported by every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"warm_p50_ms", "ms"},
	{"ok_ratio", "ratio"},
	{"max_rss_mb", "MB"},
}

// perLayer are the traced metrics. A workload that never reaches a layer
// reports it as 0.
var perLayer = []metricDef{
	{"op_wall_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"op_p99_ms", "ms"},
	{"unattributed_s", "s"},
	{"trace_overhead_ratio", "ratio"},
	{"experiment.build_s", "s"},
	{"experiment.loocv_adv_s", "s"},
	{"experiment.loocv_basic_s", "s"},
	{"experiment.train_all_s", "s"},
	{"experiment.figures_s", "s"},
	{"experiment.build_cold_s", "s"},
	{"experiment.build_warm_s", "s"},
	{"experiment.search_sims", "count"},
	{"core.train_fold_s", "s"},
	{"core.train_examples", "count"},
	{"core.feature_dim", "count"},
	{"cpu.search_run_s", "s"},
	{"cpu.ns_per_inst", "ns"},
	{"cpu.sim_insts", "count"},
	{"cpu.profile_run_s", "s"},
	{"trace.gen_s", "s"},
	{"store.fingerprint_us", "us"},
	{"store.put_us", "us"},
	{"store.get_us", "us"},
	{"store.open_s", "s"},
	{"store.hit_ratio", "ratio"},
	{"store.bytes_written", "bytes"},
	{"store.bytes_read", "bytes"},
	{"serve.decode_us", "us"},
	{"serve.handler_hit_us", "us"},
	{"serve.handler_miss_us", "us"},
	{"serve.engine_us", "us"},
	{"serve.handler_s", "s"},
	{"serve.hit_ratio", "ratio"},
	{"serve.requests.interactive", "count"},
	{"serve.requests.batch", "count"},
	{"serve.requests.background", "count"},
	{"serve.ok.interactive", "count"},
	{"serve.ok.batch", "count"},
	{"serve.ok.background", "count"},
	{"serve.shed.interactive", "count"},
	{"serve.shed.batch", "count"},
	{"serve.shed.background", "count"},
	{"serve.failed.interactive", "count"},
	{"serve.failed.batch", "count"},
	{"serve.failed.background", "count"},
	{"loadgen.queue_s", "s"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.late_max_ms", "ms"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.num_gc", "count"},
}

// config is one run's settings.
type config struct {
	Workload string
	Seed     uint64
	Seconds  float64
	Trace    bool

	// ScaleSeed, ScheduleSeed and PoolSeed are the generated-input seeds:
	// the dataset's experiment.Scale.Seed, the open-loop arrival schedule
	// and the serving feature pool. Zero derives them from Seed (see
	// resolveSeeds).
	ScaleSeed    uint64
	ScheduleSeed uint64
	PoolSeed     uint64

	// Setups is how many times the workload's set-up runs (see
	// setupsBefore): setup_s is their trimmed mean. Traced runs set up once.
	Setups int
	// Tiny shrinks every workload to a smoke-test size.
	Tiny bool
	// WorkDir holds build-mid's scratch stores.
	WorkDir string
}

// untracedSetups is how many set-ups an untraced run times.
const untracedSetups = 5

// setupsBefore is how many of the run's set-ups come before the
// measurement; the rest come after it. Set-ups timed back to back agree
// closely, but the host's speed shifts between states every ten seconds or
// so (the same boot takes 0.85 s in one and 1.2 s in another), so timing
// them at both ends of the run samples more than one state. setup_s is
// their trimmed mean: a median would pick one state, the mean of the
// middle values blends them and still drops a one-off spike.
func (c config) setupsBefore() int { return (c.Setups + 1) / 2 }

// resolveSeeds fills the zero seeds. serve-open replays adaptd's
// test-scale first boot, whose dataset seed is 1: training cost depends
// strongly on the dataset, so the run seed varies only what does not change
// the amount of work. build-mid's cost does not depend on the dataset seed,
// so the run seed picks it.
func (c *config) resolveSeeds() {
	if c.ScaleSeed == 0 {
		c.ScaleSeed = 1
		if c.Workload == "build-mid" {
			c.ScaleSeed = c.Seed
		}
	}
	if c.ScheduleSeed == 0 {
		c.ScheduleSeed = c.Seed
	}
	if c.PoolSeed == 0 {
		c.PoolSeed = c.Seed
	}
}

// result is the JSON line a run prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a workload measured: operation counts plus metric values
// by name.
type outcome struct {
	Attempted int
	Failed    int
	// Wrong counts operations whose output failed a check (a subset of
	// Failed).
	Wrong  int
	Values map[string]float64
}

// workloads maps each workload name to the function that measures it.
var workloads = map[string]func(context.Context, config) (outcome, error){
	"build-mid":  runBuild,
	"serve-open": runServe,
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		cfg   config
		trace int
	)
	fs.StringVar(&cfg.Workload, "workload", "", "build-mid or serve-open")
	fs.Uint64Var(&cfg.Seed, "seed", 1, "run seed; derives every input seed left at 0")
	fs.Float64Var(&cfg.Seconds, "seconds", 20, "measurement time in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer measurement")
	fs.Uint64Var(&cfg.ScaleSeed, "scale-seed", 0, "dataset seed (experiment.Scale.Seed); 0 = workload default")
	fs.Uint64Var(&cfg.ScheduleSeed, "schedule-seed", 0, "serve-open arrival schedule seed; 0 = -seed")
	fs.Uint64Var(&cfg.PoolSeed, "pool-seed", 0, "serve-open feature pool seed; 0 = -seed")
	fs.BoolVar(&cfg.Tiny, "tiny", false, "smoke-test sizes")
	fs.StringVar(&cfg.WorkDir, "work-dir", ".bench_build/work", "scratch directory for build-mid's stores")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	drive, ok := workloads[cfg.Workload]
	if !ok {
		return fmt.Errorf("unknown -workload %q (want build-mid or serve-open)", cfg.Workload)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	cfg.Trace = trace == 1
	cfg.Setups = untracedSetups
	if cfg.Trace {
		cfg.Setups = 1
	}
	cfg.resolveSeeds()
	if p := min(2, runtime.NumCPU()); runtime.GOMAXPROCS(0) > p {
		runtime.GOMAXPROCS(p)
	}

	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	out, err := drive(context.Background(), cfg)
	if err != nil {
		return err
	}
	if out.Attempted < 1 {
		return errors.New("no operation completed")
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)

	defs := endToEnd
	if cfg.Trace {
		defs = perLayer
		out.Values["runtime.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
		out.Values["runtime.num_gc"] = float64(after.NumGC - before.NumGC)
	} else {
		out.Values["max_rss_mb"] = maxRSSMB()
	}
	res := result{
		Correct:   out.Wrong == 0,
		Attempted: out.Attempted,
		Failed:    out.Failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v, ok := out.Values[d.Name]
		if !ok && !cfg.Trace {
			return fmt.Errorf("workload %s did not measure %s", cfg.Workload, d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.Name, v)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// maxRSSMB is the process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// deadline returns when a measurement window that starts now ends.
func deadline(seconds float64) time.Time {
	return time.Now().Add(time.Duration(seconds * float64(time.Second)))
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for none.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// overheadRatio is the traced operations' median wall time over the
// untraced ones' in the same run; 1 when either side is missing.
func overheadRatio(traced, plain []time.Duration) float64 {
	t, p := median(seconds(traced)), median(seconds(plain))
	if t == 0 || p == 0 {
		return 1
	}
	return t / p
}

// trimmedMean returns the mean of xs without its lowest and highest value
// (of all of xs when there are fewer than three); 0 for none.
func trimmedMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) >= 3 {
		s = s[1 : len(s)-1]
	}
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for none.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// seconds converts durations to float seconds.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// millis converts durations to float milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}
