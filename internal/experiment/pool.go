package experiment

import (
	"context"
	"sync"
	"sync/atomic"
)

// task is one unit of a build's independent work. Exactly one executor
// runs it: the pool helper that pops it first, or whichever goroutine
// waits for it before any helper has started it.
type task struct {
	claimed atomic.Bool
	done    chan struct{}
	run     func()
}

func newTask(run func()) *task { return &task{done: make(chan struct{}), run: run} }

// base lets await take slices of any job type that embeds *task.
func (t *task) base() *task { return t }

// tryRun runs t on the calling goroutine unless another executor has
// already claimed it.
func (t *task) tryRun() {
	if t.claimed.CompareAndSwap(false, true) {
		t.run()
		close(t.done)
	}
}

// wait returns once t has run, running it here if nobody has started it.
func (t *task) wait() {
	t.tryRun()
	<-t.done
}

func (t *task) finished() bool {
	select {
	case <-t.done:
		return true
	default:
		return false
	}
}

// await returns once js[k] has run. While js[k] runs on another executor,
// the caller runs the later jobs of js that nobody has started, so a batch
// consumed in order keeps every executor busy; with no helpers it runs
// js[0], js[1], ... one at a time as the caller reaches them.
func await[J interface{ base() *task }](js []J, k int) {
	for i := k; i < len(js) && !js[k].base().finished(); i++ {
		js[i].base().tryRun()
	}
	<-js[k].base().done
}

// simPool runs one build's independent simulations — the stage-1 shared
// sample, batch simulations and profiling — on at most `workers`
// executors: workers-1 helper goroutines plus the goroutine running
// Build, which runs every task it waits for that no helper has started.
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
		if t := pop(&p.urgent); t != nil {
			return t
		}
		if t := pop(&p.ahead); t != nil {
			return t
		}
		p.wake.Wait()
	}
	return nil
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
