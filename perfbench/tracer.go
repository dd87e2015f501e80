package main

import "time"

// tracer times, from the benchmark's own timers, the calls one operation
// makes into the repository's packages; nothing inside the program is
// instrumented. Every timed call is a direct child of the operation, so a
// layer's time is the sum of its calls' durations. A tracer that is off
// records nothing and costs one branch per call.
type tracer struct {
	on     bool
	layers map[string]time.Duration // this operation's time per layer
}

// do runs fn and, when tracing, adds its duration to layer name.
func (t *tracer) do(name string, fn func() error) error {
	if !t.on {
		return fn()
	}
	t0 := time.Now()
	err := fn()
	t.add(name, time.Since(t0))
	return err
}

// add credits d to layer name.
func (t *tracer) add(name string, d time.Duration) {
	if t.layers == nil {
		t.layers = map[string]time.Duration{}
	}
	t.layers[name] += d
}

// reset starts a new operation.
func (t *tracer) reset() { clear(t.layers) }

// ledger sums traced operations' layer times. The time no layer covers is
// the operation's wall time minus its layers' times, so the layer times
// plus the unattributed time add up to the operations' wall time.
type ledger struct {
	ops          int
	wall         time.Duration
	self         map[string]time.Duration
	unattributed time.Duration
}

// addOp folds one traced operation of the given wall time and the layer
// times the tracer holds for it.
func (l *ledger) addOp(wall time.Duration, t *tracer) {
	if l.self == nil {
		l.self = map[string]time.Duration{}
	}
	l.ops++
	l.wall += wall
	rest := wall
	for name, d := range t.layers {
		l.self[name] += d
		rest -= d
	}
	l.unattributed += rest
}

// fill stores the per-operation mean of the wall time, the unattributed
// time and each layer's time (as "<layer>_s") into values.
func (l *ledger) fill(values map[string]float64) {
	if l.ops == 0 {
		return
	}
	n := float64(l.ops)
	values["op_wall_s"] = l.wall.Seconds() / n
	values["unattributed_s"] = l.unattributed.Seconds() / n
	for name, d := range l.self {
		values[name+"_s"] = d.Seconds() / n
	}
}
