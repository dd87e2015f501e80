package experiment

import (
	"sync/atomic"

	"repro/internal/obs"
)

// Process-wide harness series (obs.DefaultRegistry): how much simulation
// the pipeline has paid for and how much the memo table saved. These are
// observability only — nothing in the experiment protocol reads them.
var (
	obsSims = obs.DefaultRegistry().Counter("repro_experiment_simulations_total",
		"Simulations executed by the harness (memoisation misses).")
	obsMemoHits = obs.DefaultRegistry().Counter("repro_experiment_memo_hits_total",
		"Dataset results answered from the memo table.")
	obsSampleConfigs = obs.DefaultRegistry().Counter("repro_experiment_sample_configs_total",
		"(phase, config) evaluations that joined the sample space.")
	obsTraces = obs.DefaultRegistry().Counter("repro_experiment_traces_total",
		"Phase traces generated (at most one per phase and build; none on a warm replay).")
	// obsSimsExact counts the exact simulations the three-stage search
	// paid for: in-sample, fresh (not store hits) and inside Build's
	// search window.
	obsSimsExact = obs.DefaultRegistry().Counter("repro_sims_exact",
		"Exact simulations spent on design-space search candidates.")
)

// SearchSimCount returns the process-lifetime count of exact simulations
// spent on search candidates (repro_sims_exact) — what cmd/report logs as
// searchSims and what the build-contract tests meter per build.
func SearchSimCount() uint64 { return obsSimsExact.Value() }

// TraceCount returns the process-lifetime count of phase traces generated
// (repro_experiment_traces_total) — what the build-contract tests meter
// per build.
func TraceCount() uint64 { return obsTraces.Value() }

// MemoStats returns the process-lifetime memoisation hits and misses
// (misses are simulations actually run) — the hit rate cmd/report's
// progress lines display.
func MemoStats() (hits, misses uint64) {
	return obsMemoHits.Value(), obsSims.Value()
}

// ProgressFunc receives live progress events from the long pipeline
// stages: stage is "search", "profile" or a held-out evaluation ("loocv
// <set>", "ablation <family>", "altmodel"), done/total count phases or
// folds. Callbacks must not touch dataset state.
type ProgressFunc func(stage string, done, total int)

var progressFn atomic.Pointer[ProgressFunc]

// SetProgress installs (or, with nil, removes) the process-wide progress
// callback. cmd/report, adaptd and adaptsim use it for live
// progress/ETA lines; it has no effect on results.
func SetProgress(fn ProgressFunc) {
	if fn == nil {
		progressFn.Store(nil)
		return
	}
	progressFn.Store(&fn)
}

// reportProgress invokes the installed callback, if any.
func reportProgress(stage string, done, total int) {
	if fn := progressFn.Load(); fn != nil {
		(*fn)(stage, done, total)
	}
}
