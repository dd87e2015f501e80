package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/experiment"
	"repro/internal/store"
	"repro/internal/trace"
)

// warmReplays is how many warm replays follow each cold build: the replay
// is short, so several per operation give warm_p50_ms enough samples.
const warmReplays = 2

// buildScale is the dataset build-mid builds: every program, two phases
// each, at TestScale's interval and sample sizes.
func buildScale(cfg config) experiment.Scale {
	sc := experiment.TestScale()
	sc.Programs = trace.Benchmarks()
	sc.Seed = cfg.ScaleSeed
	if cfg.Tiny {
		sc.Programs = sc.Programs[:3]
		sc.PhasesPerProgram = 1
		sc.UniformSamples = 4
		sc.LocalSamples = 2
	}
	return sc
}

// buildOut is what one build-mid operation produced and measured.
type buildOut struct {
	ds                   *experiment.Dataset
	cold                 time.Duration
	warm                 []time.Duration
	warmDS               []*experiment.Dataset
	coldDigest           string
	warmDigests          []string
	warmSims             uint64 // fresh search simulations paid by the warm replays
	coldStats, warmStats store.Stats
}

// buildOp runs a cold build into a fresh store in dir, then replays it
// warmReplays times from the reopened store.
func buildOp(ctx context.Context, sc experiment.Scale, dir string, tr *tracer) (buildOut, error) {
	var out buildOut
	if err := os.RemoveAll(dir); err != nil {
		return out, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return out, err
	}
	defer os.RemoveAll(dir)

	// pass opens the store, builds against it and closes it.
	pass := func(layer string) (*experiment.Dataset, store.Stats, error) {
		var st *store.Store
		if err := tr.do("store.open", func() (err error) {
			st, err = store.Open(dir)
			return err
		}); err != nil {
			return nil, store.Stats{}, err
		}
		var ds *experiment.Dataset
		err := tr.do(layer, func() (err error) {
			ds, err = experiment.Build(ctx, sc, experiment.WithStore(st))
			return err
		})
		stats := st.Stats()
		if cerr := st.Close(); err == nil {
			err = cerr
		}
		return ds, stats, err
	}

	t0 := time.Now()
	ds, stats, err := pass("experiment.build_cold")
	out.cold = time.Since(t0)
	if err != nil {
		return out, err
	}
	out.ds, out.coldStats = ds, stats
	for i := 0; i < warmReplays; i++ {
		sims := experiment.SearchSimCount()
		t0 := time.Now()
		wds, stats, err := pass("experiment.build_warm")
		out.warm = append(out.warm, time.Since(t0))
		if err != nil {
			return out, err
		}
		out.warmSims += experiment.SearchSimCount() - sims
		out.warmStats.Hits += stats.Hits
		out.warmStats.Misses += stats.Misses
		out.warmStats.BytesRead += stats.BytesRead
		out.warmDS = append(out.warmDS, wds)
	}
	return out, nil
}

// digest fingerprints the cold and warm datasets, outside the timed
// operation.
func (o *buildOut) digest() {
	o.coldDigest = o.ds.Digest()
	for _, ds := range o.warmDS {
		o.warmDigests = append(o.warmDigests, ds.Digest())
	}
}

// check holds for any correct program: every warm replay reproduces the
// cold build's dataset from the store alone, and the cold build matches
// the reference operation's.
func (o buildOut) check(refDigest string) error {
	if refDigest != "" && o.coldDigest != refDigest {
		return fmt.Errorf("cold digest %.12s, reference %.12s", o.coldDigest, refDigest)
	}
	for _, d := range o.warmDigests {
		if d != o.coldDigest {
			return fmt.Errorf("warm digest %.12s, cold %.12s", d, o.coldDigest)
		}
	}
	if o.warmSims != 0 {
		return fmt.Errorf("warm replays paid %d fresh search simulations", o.warmSims)
	}
	if o.warmStats.Misses != 0 || o.warmStats.Hits == 0 {
		return fmt.Errorf("warm store hit ratio below 1: %d hits, %d misses", o.warmStats.Hits, o.warmStats.Misses)
	}
	return nil
}

// runBuild measures build-mid: set-up is the reference operation (run
// cfg.Setups times); every measured operation is checked against it.
func runBuild(ctx context.Context, cfg config) (outcome, error) {
	sc := buildScale(cfg)
	work := filepath.Join(cfg.WorkDir, fmt.Sprintf("build-mid-%d", os.Getpid()))
	defer os.RemoveAll(work)
	dir := filepath.Join(work, "store")

	var ref buildOut
	var setups []float64
	setUp := func(i int) error {
		t0 := time.Now()
		out, err := buildOp(ctx, sc, dir, &tracer{})
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		out.digest()
		if err := out.check(ref.coldDigest); err != nil {
			return fmt.Errorf("set-up %d: %w", i+1, err)
		}
		if i == 0 {
			ref = out
		}
		return nil
	}
	for i := 0; i < cfg.setupsBefore(); i++ {
		if err := setUp(i); err != nil {
			return outcome{}, err
		}
	}

	o := outcome{Values: map[string]float64{}}
	var cold, warm, traced, plain []time.Duration
	var led ledger
	var insts, sims, hits, lookups, written, read float64
	tr := &tracer{}
	end := deadline(cfg.Seconds)
	for i := 0; i < 1 || (cfg.Trace && i < 2) || time.Now().Before(end); i++ {
		tr.reset()
		tr.on = cfg.Trace && i%2 == 0
		c0 := simCounters()
		t0 := time.Now()
		out, err := buildOp(ctx, sc, dir, tr)
		wall := time.Since(t0)
		c1 := simCounters()
		o.Attempted++
		if err != nil {
			o.Failed++
			fmt.Fprintf(os.Stderr, "build-mid op %d: %v\n", i, err)
			continue
		}
		out.digest()
		if err := out.check(ref.coldDigest); err != nil {
			o.Failed++
			o.Wrong++
			fmt.Fprintf(os.Stderr, "build-mid op %d: %v\n", i, err)
			continue
		}
		cold = append(cold, out.cold)
		warm = append(warm, out.warm...)
		if tr.on {
			led.addOp(wall, tr)
			traced = append(traced, wall)
			insts += float64(c1.insts - c0.insts)
			sims += float64(c1.searchSims - c0.searchSims)
			hits += float64(out.warmStats.Hits)
			lookups += float64(out.warmStats.Hits + out.warmStats.Misses)
			written += float64(out.coldStats.BytesWritten)
			read += float64(out.warmStats.BytesRead)
		} else {
			plain = append(plain, wall)
		}
	}

	for i := cfg.setupsBefore(); i < cfg.Setups; i++ {
		if err := setUp(i); err != nil {
			return outcome{}, err
		}
	}

	v := o.Values
	if !cfg.Trace {
		v["setup_s"] = trimmedMean(setups)
		v["p50_ms"] = median(millis(cold))
		v["warm_p50_ms"] = median(millis(warm))
		v["ok_ratio"] = float64(o.Attempted-o.Failed) / float64(o.Attempted)
		return o, nil
	}
	led.fill(v)
	v["op_p50_ms"] = median(millis(cold))
	v["op_p90_ms"] = quantile(millis(cold), 0.9)
	v["op_p99_ms"] = quantile(millis(cold), 0.99)
	v["trace_overhead_ratio"] = overheadRatio(traced, plain)
	if n := float64(led.ops); n > 0 {
		v["cpu.sim_insts"] = insts / n
		v["experiment.search_sims"] = sims / n
		v["store.bytes_written"] = written / n
		v["store.bytes_read"] = read / n
	}
	if lookups > 0 {
		v["store.hit_ratio"] = hits / lookups
	}
	if err := probeSimulator(ref.ds, 2, v); err != nil {
		return o, err
	}
	if err := probeStore(ref.ds, filepath.Join(work, "probe"), v); err != nil {
		return o, err
	}
	return o, nil
}
