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
)

// Surrogate-search series (see WithSurrogate and internal/surrogate).
// repro_sims_exact counts the exact simulations the three-stage search
// paid for — the budget the surrogate prunes and the denominator of its
// >=2x reduction claim; it advances identically-defined with the
// surrogate off, so two report runs are directly comparable. The pruned/
// audited counters and the quality gauges only move on surrogate builds.
var (
	obsSimsExact = obs.DefaultRegistry().Counter("repro_sims_exact",
		"Exact simulations spent on design-space search candidates.")
	obsSurrogatePruned = obs.DefaultRegistry().Counter("repro_surrogate_pruned",
		"Candidate evaluations skipped on the surrogate's ranking.")
	obsSurrogateAudited = obs.DefaultRegistry().Counter("repro_surrogate_audited",
		"Pruned candidates exact-simulated anyway as the seeded audit slice.")
	obsSurrogateRankCorr = obs.DefaultRegistry().Gauge("repro_surrogate_rank_corr",
		"Mean Spearman correlation of predicted vs exact ordering over audited batches.")
	obsSurrogateRegret = obs.DefaultRegistry().Gauge("repro_surrogate_regret",
		"Mean efficiency fraction the shortlist's best gave up vs the audited best.")
	obsSurrogateCalibMAE = obs.DefaultRegistry().Gauge("repro_surrogate_calib_mae",
		"Surrogate prequential mean absolute error in log-efficiency.")
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
// stages: stage is "search", "profile" or "loocv <set>", done/total count
// phases or folds. Callbacks must not touch dataset state.
type ProgressFunc func(stage string, done, total int)

var progressFn atomic.Pointer[ProgressFunc]

// SetProgress installs (or, with nil, removes) the process-wide progress
// callback. cmd/report and the benchmark harness use it for live
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
