package serve

import (
	"math"
	"sync/atomic"
)

// Class is a request's admission class. Higher values are more important:
// under pressure the server sheds the lowest class first, so interactive
// traffic keeps its latency while background traffic absorbs the loss —
// the serving-side analogue of the paper's premise that the adaptive core
// must keep reacting to the phases that matter even when the pipeline is
// saturated.
type Class uint8

const (
	ClassBackground Class = iota
	ClassBatch
	ClassInteractive
	// NumClasses bounds the class space; iterate Class(0)..NumClasses-1.
	NumClasses
)

// String returns the wire name carried in X-Request-Class.
func (c Class) String() string {
	switch c {
	case ClassBackground:
		return "background"
	case ClassBatch:
		return "batch"
	case ClassInteractive:
		return "interactive"
	}
	return "unknown"
}

// ParseClass resolves a wire name; the empty string is the default
// (interactive — untagged callers are presumed latency-sensitive).
func ParseClass(s string) (Class, bool) {
	switch s {
	case "":
		return ClassInteractive, true
	case "background":
		return ClassBackground, true
	case "batch":
		return ClassBatch, true
	case "interactive":
		return ClassInteractive, true
	}
	return ClassInteractive, false
}

// ClassPolicy is one class's admission policy. The zero policy admits
// everything.
type ClassPolicy struct {
	// MaxShare caps the class's concurrent in-flight predicts at this
	// fraction of the server's MaxInflight (at least 1 slot). Values
	// <= 0 or >= 1 leave the class bounded only by the shared semaphore.
	// Lower classes keep a smaller share, so an admitted higher-class
	// request always finds semaphore headroom the lower classes cannot
	// occupy.
	MaxShare float64
}

// AdmissionConfig configures per-class admission control.
type AdmissionConfig struct {
	// Classes holds the per-class policies; a class absent from the map
	// has the zero policy.
	Classes map[Class]ClassPolicy
}

// DefaultAdmissionConfig is the shed-lowest-first ladder: background may
// hold half the in-flight slots, batch three quarters, and interactive is
// bounded only by the shared semaphore.
func DefaultAdmissionConfig() AdmissionConfig {
	return AdmissionConfig{
		Classes: map[Class]ClassPolicy{
			ClassBackground:  {MaxShare: 0.5},
			ClassBatch:       {MaxShare: 0.75},
			ClassInteractive: {},
		},
	}
}

// classGate is one class's runtime admission state.
type classGate struct {
	capInflight int64 // resolved MaxShare cap; 0 = uncapped
	inflight    atomic.Int64
}

// admission is the per-class gate ahead of the concurrency semaphore: a
// ladder of in-flight share caps. A decision depends only on how many
// requests of the class are in flight, never on a clock or on measured
// latency, and never feeds back into any memoised result (CLAUDE.md).
type admission struct {
	classes [NumClasses]classGate
}

// newAdmission resolves the config against the server's inflight bound.
func newAdmission(cfg AdmissionConfig, maxInflight int) *admission {
	a := &admission{}
	for c := Class(0); c < NumClasses; c++ {
		if pol := cfg.Classes[c]; pol.MaxShare > 0 && pol.MaxShare < 1 {
			a.classes[c].capInflight = int64(math.Max(1, math.Floor(pol.MaxShare*float64(maxInflight))))
		}
	}
	return a
}

// admit decides one request of class c against its in-flight share cap.
// An admitted request MUST call release(c) when it leaves the handler.
func (a *admission) admit(c Class) bool {
	g := &a.classes[c]
	if n := g.inflight.Add(1); g.capInflight > 0 && n > g.capInflight {
		g.inflight.Add(-1)
		return false
	}
	return true
}

// release returns an admitted request's in-flight slot.
func (a *admission) release(c Class) { a.classes[c].inflight.Add(-1) }

// inflightOf reports a class's current admitted in-flight count.
func (a *admission) inflightOf(c Class) int64 { return a.classes[c].inflight.Load() }
