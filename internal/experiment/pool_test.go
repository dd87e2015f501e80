package experiment

import (
	"bytes"
	"context"
	"errors"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/obs"
	"repro/internal/store"
)

// poolScale is small but pipelines every kind of pool work: traces, six
// phases of stage-1 run-ahead, a Width sweep batch per phase and the
// profiling pass.
func poolScale() Scale {
	return Scale{
		Programs:         []string{"mcf", "swim", "gzip"},
		PhasesPerProgram: 2,
		IntervalInsts:    800,
		WarmupInsts:      400,
		UniformSamples:   6,
		LocalSamples:     3,
		SweepParams:      []arch.Param{arch.Width},
		GoodThreshold:    0.95,
		SampledSets:      8,
		Seed:             3,
	}
}

// TestDefaultWorkersMatchSequential is the identity contract for the
// worker count production builds use (runtime.GOMAXPROCS(0); run it with
// -cpu 1,2): a cold build into a fresh store must reproduce the
// WithWorkers(1) build's dataset digest, store log, store hit and miss
// counts, and span tree.
func TestDefaultWorkersMatchSequential(t *testing.T) {
	type outcome struct {
		digest, tree string
		log          []byte
		stats        store.Stats
	}
	run := func(opts ...Option) outcome {
		t.Helper()
		dir := t.TempDir()
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		tr := obs.DefaultTracer()
		tr.Reset()
		tr.Enable()
		ds, err := Build(context.Background(), poolScale(), append(opts, WithStore(st))...)
		tr.Disable()
		if err != nil {
			t.Fatal(err)
		}
		out := outcome{digest: ds.Digest(), tree: tr.Tree(), stats: st.Stats()}
		tr.Reset()
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		if out.log, err = os.ReadFile(store.HeadLog(dir)); err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := run(WithWorkers(1))
	got := run()
	if got.digest != want.digest {
		t.Errorf("dataset digest %s, sequential %s", got.digest, want.digest)
	}
	if !bytes.Equal(got.log, want.log) {
		t.Errorf("results.log differs from the sequential build's: %d bytes vs %d", len(got.log), len(want.log))
	}
	if got.stats.Hits != want.stats.Hits || got.stats.Misses != want.stats.Misses {
		t.Errorf("store hits/misses %d/%d, sequential %d/%d",
			got.stats.Hits, got.stats.Misses, want.stats.Hits, want.stats.Misses)
	}
	if got.tree != want.tree {
		t.Errorf("span tree differs from the sequential build's:\n--- sequential ---\n%s\n--- default ---\n%s", want.tree, got.tree)
	}
}

// TestBuildStopsPoolOnExit cancels builds mid-search and fails one during
// trace generation: each must return its error only after the pool's
// helpers have exited, so the goroutine count returns to its baseline.
func TestBuildStopsPoolOnExit(t *testing.T) {
	cases := []struct {
		name     string
		sc       Scale
		opts     []Option
		cancelAt int // cancel once this many phases are searched; 0: never
	}{
		{name: "cancel/default", sc: poolScale(), cancelAt: 2},
		{name: "cancel/workers=3", sc: poolScale(), opts: []Option{WithWorkers(3)}, cancelAt: 2},
		{name: "unknown-program/workers=3", opts: []Option{WithWorkers(3)},
			sc: Scale{Programs: []string{"mcf", "no-such-program"}, PhasesPerProgram: 1, IntervalInsts: 800}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if c.cancelAt > 0 {
				SetProgress(func(stage string, done, _ int) {
					if stage == "search" && done == c.cancelAt {
						cancel()
					}
				})
				defer SetProgress(nil)
			}
			_, err := Build(ctx, c.sc, c.opts...)
			if err == nil {
				t.Fatal("Build succeeded, want an error")
			}
			if c.cancelAt > 0 && !errors.Is(err, context.Canceled) {
				t.Errorf("Build error %v does not wrap context.Canceled", err)
			}
			// Build has waited for its helpers; allow the exiting
			// goroutines a moment to be reaped.
			deadline := time.Now().Add(time.Second)
			for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > base {
				t.Errorf("%d goroutines after Build returned, %d before", n, base)
			}
		})
	}
}
