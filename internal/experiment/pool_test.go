package experiment

import (
	"bytes"
	"context"
	"errors"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/trace"
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
// The failed build returns the trace generator's own error, unwrapped by
// any later stage.
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
			if c.cancelAt == 0 {
				_, want := trace.NewGenerator("no-such-program", 0)
				if err.Error() != want.Error() {
					t.Errorf("Build error %q, want the trace stage's %q", err, want)
				}
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

// fnJob is a pool job that runs f.
type fnJob struct {
	task
	f func()
}

func newFnJob(f func()) *fnJob {
	j := &fnJob{f: f}
	j.init(j)
	return j
}

func (j *fnJob) runTask() { j.f() }

// testPool is newSimPool, closed when the test ends.
func testPool(t *testing.T, ctx context.Context, workers int) *simPool {
	p := newSimPool(ctx, workers)
	t.Cleanup(p.close)
	return p
}

// holdHelper hands p's only helper a job that runs until release is
// called, and returns once the helper has started it. The job is released
// when the test ends at the latest, so a failing test cannot leave the
// pool's close waiting for it.
func holdHelper(t *testing.T, p *simPool) (held *fnJob, release func()) {
	started, hold := make(chan struct{}), make(chan struct{})
	held = newFnJob(func() {
		close(started)
		<-hold
	})
	release = sync.OnceFunc(func() { close(hold) })
	t.Cleanup(release)
	p.submit(false, &held.task)
	<-started
	return held, release
}

// awaitWithin runs await(p, js, k) and fails the test if it has not
// returned within a generous deadline.
func awaitWithin(t *testing.T, p *simPool, js []*fnJob, k int) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		await(p, js, k)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("await still blocked after 10s")
	}
}

// TestAwaitHelpsWhileJobRunsElsewhere: while the job it waits for runs on
// a helper, await runs the pool's other queued tasks, urgent before
// ahead, instead of blocking. The only helper is held, so a queued task
// that ran can only have run on the awaiting goroutine, and the held job
// is released only from inside the last queued task.
func TestAwaitHelpsWhileJobRunsElsewhere(t *testing.T) {
	p := testPool(t, context.Background(), 2)
	held, release := holdHelper(t, p)
	var order []string
	ahead := newFnJob(func() {
		order = append(order, "ahead")
		release()
	})
	urgent := newFnJob(func() { order = append(order, "urgent") })
	p.submit(false, &ahead.task)
	p.submit(true, &urgent.task)
	awaitWithin(t, p, []*fnJob{held}, 0)
	if !held.finished() {
		t.Error("await returned before its job finished")
	}
	if want := []string{"urgent", "ahead"}; !slices.Equal(order, want) {
		t.Errorf("await ran %v while it waited, want %v", order, want)
	}
}

// TestPoolRunsAtMostWorkersTasks drives a pool the way Build does — work
// queued ahead, then urgent batches awaited in order — and checks that no
// more than `workers` tasks ever run at once, the awaiting goroutine's
// included, and that every task runs exactly once.
func TestPoolRunsAtMostWorkersTasks(t *testing.T) {
	const workers = 3
	p := testPool(t, context.Background(), workers)
	var running, peak, ran atomic.Int64
	job := func(i int) *fnJob {
		return newFnJob(func() {
			n := running.Add(1)
			for m := peak.Load(); n > m && !peak.CompareAndSwap(m, n); m = peak.Load() {
			}
			time.Sleep(time.Duration(50+i%7*40) * time.Microsecond)
			ran.Add(1)
			running.Add(-1)
		})
	}
	var ahead []*fnJob
	for i := 0; i < 60; i++ {
		j := job(i)
		p.submit(false, &j.task)
		ahead = append(ahead, j)
	}
	total := len(ahead)
	for b := 0; b < 6; b++ {
		var batch []*fnJob
		for i := 0; i < 5; i++ {
			j := job(b*5 + i)
			p.submit(true, &j.task)
			batch = append(batch, j)
		}
		total += len(batch)
		for k := range batch {
			awaitWithin(t, p, batch, k)
		}
	}
	for k := range ahead {
		awaitWithin(t, p, ahead, k)
	}
	if got := ran.Load(); got != int64(total) {
		t.Errorf("%d task runs, want %d", got, total)
	}
	if got := peak.Load(); got > workers {
		t.Errorf("%d tasks ran at once, want at most %d", got, workers)
	}
}

// TestAwaitStopsHelpingWhenPoolStops: once the build's context is done or
// the pool is closed, await takes no more queued work and only waits for
// its own job.
func TestAwaitStopsHelpingWhenPoolStops(t *testing.T) {
	t.Run("cancelled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		p := testPool(t, ctx, 2)
		held, release := holdHelper(t, p)
		queued := newFnJob(func() {})
		p.submit(false, &queued.task)
		cancel()
		release()
		awaitWithin(t, p, []*fnJob{held}, 0)
		if queued.claimed.Load() {
			t.Error("await ran queued work after the context was cancelled")
		}
	})
	t.Run("closed", func(t *testing.T) {
		p := testPool(t, context.Background(), 2)
		held, release := holdHelper(t, p)
		closed := make(chan struct{})
		go func() {
			p.close()
			close(closed)
		}()
		for {
			p.mu.Lock()
			c := p.closed
			p.mu.Unlock()
			if c {
				break
			}
			runtime.Gosched()
		}
		// close empties the queues; queue a task behind its back so the
		// closed check is what keeps await from taking it.
		queued := newFnJob(func() {})
		p.mu.Lock()
		p.ahead = append(p.ahead, &queued.task)
		p.mu.Unlock()
		release()
		awaitWithin(t, p, []*fnJob{held}, 0)
		<-closed
		if queued.claimed.Load() {
			t.Error("await ran queued work from a closed pool")
		}
	})
}
