package experiment

import (
	"context"
	"sync"
	"sync/atomic"
)

// runner is a job the pool can run: simJob and traceJob implement it
// with a method, so queuing a job allocates no closure.
type runner interface{ runTask() }

// task is one unit of a build's independent work, embedded in the job it
// runs. Exactly one executor runs it: the pool helper that pops it first,
// or whichever goroutine waits for it before any helper has started it.
// Completion is a flag plus a WaitGroup, so a task allocates nothing of
// its own.
type task struct {
	claimed atomic.Bool
	done    atomic.Bool
	wg      sync.WaitGroup // released once job has run
	job     runner
}

// init readies t to run job; it must be called before t is queued or
// waited for.
func (t *task) init(job runner) {
	t.job = job
	t.wg.Add(1)
}

// base lets await take slices of any job type that embeds task.
func (t *task) base() *task { return t }

// tryRun runs t on the calling goroutine unless another executor has
// already claimed it.
func (t *task) tryRun() {
	if t.claimed.CompareAndSwap(false, true) {
		t.job.runTask()
		t.done.Store(true)
		t.wg.Done()
	}
}

// wait returns once t has run, running it here if nobody has started it.
func (t *task) wait() {
	t.tryRun()
	t.wg.Wait()
}

func (t *task) finished() bool { return t.done.Load() }

// await returns once js[k] has run. While js[k] runs on another executor,
// the caller runs the later jobs of js that nobody has started, so a batch
// consumed in order keeps every executor busy; with no helpers it runs
// js[0], js[1], ... one at a time as the caller reaches them. Once the
// batch has nothing left to start, the caller helps with the pool's other
// queued work until js[k] is done, so it idles only when the pool has
// nothing to hand out.
func await[J interface{ base() *task }](p *simPool, js []J, k int) {
	for i := k; i < len(js) && !js[k].base().finished(); i++ {
		js[i].base().tryRun()
	}
	want := js[k].base()
	for !want.finished() {
		t := p.poll()
		if t == nil {
			break
		}
		t.tryRun()
	}
	want.wg.Wait()
}

// simPool runs one build's independent simulations — the stage-1 shared
// sample, batch simulations and profiling — on at most `workers`
// executors: workers-1 helper goroutines plus the goroutine running
// Build, which runs every task it waits for that no helper has started
// and, while a helper holds that task, other queued tasks one at a time.
// At most `workers` simulations are therefore ever in flight, the search
// loop's own stage-2 simulations included. Traces are not queued: a
// phase's trace is generated on its first store miss, by the executor
// that missed. A one-worker pool has no helpers: every task runs inline
// when the search loop reaches it, which is the sequential build.
type simPool struct {
	ctx    context.Context
	mu     sync.Mutex
	wake   sync.Cond
	urgent []*task // the search loop's current batch; helpers take it first
	ahead  []*task // work queued at the start of the build, in phase order
	closed bool
	wg     sync.WaitGroup
}

// newSimPool starts workers-1 helpers. They stop taking tasks once ctx is
// done; the build's own goroutine still runs whatever it waits for.
func newSimPool(ctx context.Context, workers int) *simPool {
	p := &simPool{ctx: ctx, closed: workers <= 1}
	p.wake.L = &p.mu
	for i := 1; i < workers; i++ {
		p.wg.Add(1)
		go p.helper()
	}
	return p
}

// submit hands t to the helpers. Without helpers (one worker, or a closed
// pool) it does nothing: t runs when somebody waits for it.
func (p *simPool) submit(urgent bool, t *task) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	if urgent {
		p.urgent = append(p.urgent, t)
	} else {
		p.ahead = append(p.ahead, t)
	}
	p.wake.Signal()
}

// close stops the helpers and returns once they have exited, each after at
// most the task it is running. Queued tasks stay unrun unless somebody
// waits for them, which then runs them inline.
func (p *simPool) close() {
	p.mu.Lock()
	p.closed = true
	p.urgent, p.ahead = nil, nil
	p.wake.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}

func (p *simPool) helper() {
	defer p.wg.Done()
	for t := p.next(); t != nil; t = p.next() {
		t.tryRun()
	}
}

// next blocks until an unclaimed task is queued and returns it, or returns
// nil once the pool is closed or the build's context is done.
func (p *simPool) next() *task {
	p.mu.Lock()
	defer p.mu.Unlock()
	for !p.closed && p.ctx.Err() == nil {
		if t := p.popLocked(); t != nil {
			return t
		}
		p.wake.Wait()
	}
	return nil
}

// poll is next without the blocking: it returns an unclaimed queued task,
// or nil when none is queued or the pool is closed or its context done.
func (p *simPool) poll() *task {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed || p.ctx.Err() != nil {
		return nil
	}
	return p.popLocked()
}

// popLocked takes the first unclaimed task, urgent work first.
func (p *simPool) popLocked() *task {
	if t := pop(&p.urgent); t != nil {
		return t
	}
	return pop(&p.ahead)
}

// pop removes tasks from the front of q until it finds one nobody has
// claimed, and returns it; nil when q runs out.
func pop(q *[]*task) *task {
	for len(*q) > 0 {
		t := (*q)[0]
		*q = (*q)[1:]
		if !t.claimed.Load() {
			return t
		}
	}
	return nil
}
