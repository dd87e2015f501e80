package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/cpu"
	"repro/internal/experiment"
	"repro/internal/store"
	"repro/internal/trace"
)

// The probes replay, outside the timed operations, the calls a layer
// makes inside them, one timed call at a time: the per-call costs a traced
// operation cannot see from outside.

// simTotals is a snapshot of the process-wide simulation counters.
type simTotals struct {
	insts      uint64 // measured plus warmup instructions simulated
	searchSims uint64 // fresh in-sample search simulations
}

// simCounters reads the counters. Sim.Run simulates warmup as a nested
// Run, which counts its instructions too, so SimulatedInstructions already
// includes warmup.
func simCounters() simTotals {
	return simTotals{
		insts:      cpu.SimulatedInstructions(),
		searchSims: experiment.SearchSimCount(),
	}
}

// probeTraining replays the advanced-counter LOOCV through
// core.TrainPredictor, one timed call per fold.
func probeTraining(ds *experiment.Dataset, v map[string]float64) error {
	var folds []time.Duration
	for _, held := range ds.Programs() {
		var exs []core.PhaseExample
		for _, id := range ds.Phases {
			if id.Program != held {
				exs = append(exs, core.PhaseExample{Features: ds.FeaturesAdv[id], Good: ds.Good[id]})
			}
		}
		t0 := time.Now()
		if _, err := core.TrainPredictor(counters.Advanced, exs, experiment.TrainOptions()); err != nil {
			return fmt.Errorf("training probe, fold %s: %w", held, err)
		}
		folds = append(folds, time.Since(t0))
	}
	examples := 0
	for _, id := range ds.Phases {
		examples += len(ds.Good[id])
	}
	v["core.train_fold_s"] = median(seconds(folds))
	v["core.train_examples"] = float64(examples)
	v["core.feature_dim"] = float64(counters.Dim(counters.Advanced))
	return nil
}

// probeSimulator replays the dataset build's simulator calls: trace
// generation for every phase, up to perPhase configurations of each
// phase's sample space (0 = all) through cpu.New and Sim.Run, and the
// profiling run. Replayed search results must equal the memoised ones.
func probeSimulator(ds *experiment.Dataset, perPhase int, v map[string]float64) error {
	sc := ds.Scale
	var gen time.Duration
	var runs, profs []time.Duration
	var runTime time.Duration
	var runInsts uint64
	for _, id := range ds.Phases {
		t0 := time.Now()
		g, err := trace.NewGenerator(id.Program, id.Phase)
		if err != nil {
			return err
		}
		insts := g.Interval(sc.IntervalInsts)
		gen += time.Since(t0)

		space := ds.SampleSpace(id)
		if perPhase > 0 && len(space) > perPhase {
			space = space[:perPhase]
		}
		for _, cfg := range space {
			want, err := ds.Result(id, cfg)
			if err != nil {
				return err
			}
			c0 := simCounters().insts
			t0 := time.Now()
			sim, err := cpu.New(cfg)
			if err != nil {
				return err
			}
			res, err := sim.Run(cpu.NewSliceSource(insts), len(insts), cpu.Options{WarmupInsts: sc.WarmupInsts})
			d := time.Since(t0)
			if err != nil {
				return err
			}
			if res.Cycles != want.Cycles || res.Efficiency != want.Efficiency {
				return fmt.Errorf("simulator probe: %s replay differs from the dataset's result", id)
			}
			runs = append(runs, d)
			runTime += d
			runInsts += simCounters().insts - c0
		}

		t0 = time.Now()
		sim, err := cpu.New(arch.Profiling())
		if err != nil {
			return err
		}
		if _, err := sim.Run(cpu.NewSliceSource(insts), len(insts), cpu.Options{
			Collect: true, SampledSets: sc.SampledSets, WarmupInsts: sc.WarmupInsts,
		}); err != nil {
			return err
		}
		profs = append(profs, time.Since(t0))
	}
	v["trace.gen_s"] = gen.Seconds()
	v["cpu.search_run_s"] = median(seconds(runs))
	if runInsts > 0 {
		v["cpu.ns_per_inst"] = float64(runTime.Nanoseconds()) / float64(runInsts)
	}
	v["cpu.profile_run_s"] = median(seconds(profs))
	return nil
}

// probeStore replays the build's store traffic against a scratch store in
// dir: every in-sample result is fingerprinted, appended and read back,
// each call timed in a loop and reported as its mean.
func probeStore(ds *experiment.Dataset, dir string, v map[string]float64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	defer st.Close()
	type rec struct {
		key store.Key
		res *cpu.Result
	}
	var recs []rec
	var fp time.Duration
	for _, id := range ds.Phases {
		for _, cfg := range ds.SampleSpace(id) {
			res, err := ds.Result(id, cfg)
			if err != nil {
				return err
			}
			t0 := time.Now()
			key := store.Fingerprint(id.Program, id.Phase, cfg, ds.Scale.IntervalInsts, ds.Scale.WarmupInsts)
			fp += time.Since(t0)
			recs = append(recs, rec{key, res})
		}
	}
	if len(recs) == 0 {
		return fmt.Errorf("store probe: empty sample space")
	}
	t0 := time.Now()
	for _, r := range recs {
		if err := st.Put(r.key, r.res); err != nil {
			return err
		}
	}
	put := time.Since(t0)
	t0 = time.Now()
	for _, r := range recs {
		if _, ok := st.Get(r.key); !ok {
			return fmt.Errorf("store probe: record missing after put")
		}
	}
	get := time.Since(t0)
	n := float64(len(recs))
	v["store.fingerprint_us"] = float64(fp.Nanoseconds()) / 1e3 / n
	v["store.put_us"] = float64(put.Nanoseconds()) / 1e3 / n
	v["store.get_us"] = float64(get.Nanoseconds()) / 1e3 / n
	return nil
}
