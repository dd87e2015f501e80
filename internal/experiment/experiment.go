// Package experiment is the harness that reproduces the paper's
// evaluation: it gathers training data with the paper's three-stage design
// space search (Section V-C), derives the baselines (best overall static,
// per-program static, per-phase oracle), trains and evaluates the
// predictor with leave-one-out cross-validation (Section V-D), and
// regenerates every table and figure of the evaluation (see DESIGN.md's
// per-experiment index).
//
// Everything is parameterised by Scale, because the paper's 300,000
// ten-million-instruction simulations are far beyond one small host's budget:
// tests run a tiny scale, benchmarks a moderate one. All randomness is
// seeded; a Dataset build is deterministic for a given Scale.
package experiment

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sort"
	"strconv"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/cpu"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/surrogate"
	"repro/internal/trace"
)

// Scale bounds the cost of dataset construction.
type Scale struct {
	// Programs to include (default: the full 26-benchmark suite).
	Programs []string
	// PhasesPerProgram <= trace.PhasesPerProgram phases per benchmark.
	PhasesPerProgram int
	// IntervalInsts is the measured instructions per phase simulation;
	// WarmupInsts run first to warm caches and predictors.
	IntervalInsts int
	WarmupInsts   int
	// UniformSamples configurations are drawn once and shared by all
	// phases (stage 1 of the paper's search; sharing makes "best overall
	// static" computable). LocalSamples neighbour configurations refine
	// each phase's incumbent (stage 2). SweepParams, if non-empty, runs
	// the one-at-a-time sweep (stage 3) over those parameters only.
	UniformSamples int
	LocalSamples   int
	SweepParams    []arch.Param
	// GoodThreshold selects training targets: configs within this factor
	// of the phase best (paper: 5% -> 0.95).
	GoodThreshold float64
	// SampledSets bounds profiling-run cache sampling (0 = all).
	SampledSets int
	// Seed drives all sampling.
	Seed uint64
}

// TestScale returns a tiny scale for unit tests.
func TestScale() Scale {
	return Scale{
		Programs:         []string{"mcf", "swim", "crafty", "gzip"},
		PhasesPerProgram: 2,
		IntervalInsts:    2500,
		WarmupInsts:      1200,
		UniformSamples:   10,
		LocalSamples:     4,
		GoodThreshold:    0.95,
		SampledSets:      16,
		Seed:             1,
	}
}

// DefaultScale returns the benchmark-harness scale: the full suite at a
// budget a small host can sustain.
func DefaultScale() Scale {
	return Scale{
		Programs:         trace.Benchmarks(),
		PhasesPerProgram: trace.PhasesPerProgram,
		IntervalInsts:    8000,
		WarmupInsts:      8000,
		UniformSamples:   36,
		LocalSamples:     10,
		SweepParams:      []arch.Param{arch.Width, arch.IQSize, arch.ICacheKB, arch.L2CacheKB, arch.DepthFO4},
		GoodThreshold:    0.95,
		SampledSets:      32,
		Seed:             2010,
	}
}

// SearchBudget is the per-phase exact-simulation budget a Scale implies
// for the three-stage search: how many candidate evaluations stage 1
// (shared uniform sample), stage 2 (local neighbours) and stage 3
// (one-at-a-time sweeps) request per phase. The surrogate's shortlist and
// audit slices (surrogate.Config.ShortlistSize / AuditSize) carve their
// budgets out of these counts.
type SearchBudget struct {
	Uniform int
	Local   int
	Sweep   int
}

// PerPhase is the total candidate evaluations per phase.
func (b SearchBudget) PerPhase() int { return b.Uniform + b.Local + b.Sweep }

// Budget returns the scale's per-phase search budget (after defaulting,
// exactly as Build would see it).
func (sc Scale) Budget() SearchBudget {
	sc = sc.withDefaults()
	b := SearchBudget{Uniform: sc.UniformSamples, Local: sc.LocalSamples}
	for _, p := range sc.SweepParams {
		b.Sweep += arch.DomainSize(p)
	}
	return b
}

func (sc Scale) withDefaults() Scale {
	if len(sc.Programs) == 0 {
		sc.Programs = trace.Benchmarks()
	}
	if sc.PhasesPerProgram <= 0 || sc.PhasesPerProgram > trace.PhasesPerProgram {
		sc.PhasesPerProgram = trace.PhasesPerProgram
	}
	if sc.IntervalInsts <= 0 {
		sc.IntervalInsts = 8000
	}
	if sc.WarmupInsts < 0 {
		sc.WarmupInsts = 0
	}
	if sc.UniformSamples <= 0 {
		sc.UniformSamples = 16
	}
	if sc.GoodThreshold <= 0 || sc.GoodThreshold >= 1 {
		sc.GoodThreshold = 0.95
	}
	return sc
}

// PhaseIDs returns the build's phase list — programs in configured order,
// phases in index order within each program, after defaulting. This is the
// canonical order Build simulates, searches and profiles in.
func (sc Scale) PhaseIDs() []PhaseID {
	sc = sc.withDefaults()
	out := make([]PhaseID, 0, len(sc.Programs)*sc.PhasesPerProgram)
	for _, prog := range sc.Programs {
		for ph := 0; ph < sc.PhasesPerProgram; ph++ {
			out = append(out, PhaseID{prog, ph})
		}
	}
	return out
}

// PhaseID identifies one program phase.
type PhaseID struct {
	Program string
	Phase   int
}

// String renders "program/phase".
func (p PhaseID) String() string { return fmt.Sprintf("%s/%d", p.Program, p.Phase) }

// Dataset holds everything the evaluation needs: per-phase traces, all
// simulated (phase, configuration) results, per-phase bests and good sets,
// profiling features, and the shared candidate pool.
type Dataset struct {
	Scale  Scale
	Phases []PhaseID

	// SharedConfigs is the uniform sample evaluated on every phase.
	SharedConfigs []arch.Config

	results map[PhaseID]map[arch.Config]*entry
	// traces holds each phase's measured interval as a lazy job: a
	// simulation waits for its trace only when the store does not hold
	// its result, so a fully stored phase never needs its trace.
	traces map[PhaseID]*traceJob

	// store, when non-nil, is the persistent result cache behind the
	// in-memory memo table: simulations, profiling runs included, are
	// answered from it when possible and appended to it when not. It supplies
	// result *values* only — the in-sample flag is always decided by
	// the caller, so a store hit and a fresh simulation are
	// indistinguishable to the search protocol and the oracle.
	store *store.Store

	// Best is the most efficient in-sample configuration found per phase
	// (the paper's "best dynamic" from the sample space). Model
	// predictions never update it, so Figure 7b can exceed 1 exactly as
	// the paper observes.
	Best map[PhaseID]arch.Config
	Good map[PhaseID][]arch.Config // within GoodThreshold of best at build time

	FeaturesAdv   map[PhaseID][]float64
	FeaturesBasic map[PhaseID][]float64
	ProfileRes    map[PhaseID]*cpu.Result

	trained map[counters.Set]*core.Predictor // TrainAll memo

	// pool runs the build's independent simulations (see simPool). It is
	// closed when Build returns; a closed pool runs everything inline.
	pool *simPool

	// sur, when non-nil, is the surrogate-guided pruning state (see
	// WithSurrogate). nil keeps every code path byte-identical to the
	// plain build.
	sur *surrogateState

	// inSearch marks the three-stage search window of Build; exact
	// in-sample simulations inside it are the search budget the
	// repro_sims_exact counter (and the surrogate's >=2x claim) measures.
	inSearch bool

	// BestStatic is the shared configuration with the highest aggregate
	// efficiency across all phases (the paper's baseline, Table III).
	BestStatic arch.Config
}

// Option configures a dataset build. The zero configuration (no options)
// is a plain in-memory build.
type Option func(*buildOptions)

type buildOptions struct {
	store     *store.Store
	workers   int
	surrogate *surrogate.Config
}

// WithStore attaches a persistent result store to the build (nil is
// allowed and disables it, so callers can pass an optional store through
// unconditionally). Every simulation, profiling runs included, is first
// looked up in the store and, on a miss, appended to it immediately after
// running — a build interrupted mid-dataset resumes where it stopped on
// the next run, and a repeat run at the same scale replays from disk
// instead of simulating.
func WithStore(st *store.Store) Option {
	return func(o *buildOptions) { o.store = st }
}

// WithWorkers overrides the build's worker count, which defaults to
// runtime.GOMAXPROCS(0): at most n simulations run at once, on n-1 helper
// goroutines plus the one running Build. Trace generation, the stage-1
// shared sample of every phase and the profiling pass are queued when the
// build starts; each sweep batch is fanned out as the search reaches it.
// All side effects — memo inserts, sample-space promotion, best updates,
// store appends and telemetry spans — are applied on Build's goroutine in
// the sequential build's order, so any worker count produces the
// byte-identical dataset, span tree and store log. n = 1 is the fully
// sequential build; values below 1 mean the default.
func WithWorkers(n int) Option {
	return func(o *buildOptions) { o.workers = n }
}

// Build runs the full data-gathering pipeline at the given scale: the
// single entry point (the deprecated BuildDataset/BuildDatasetCtx/
// BuildDatasetStore trio it replaced is gone). The pipeline checks ctx
// between phases (the per-phase granularity keeps a SIGINT during adaptd's
// first-boot training prompt without threading ctx into the simulator's
// inner loop); a cancelled build returns ctx.Err() wrapped with the stage
// it was in, after its pool's helpers have finished the simulations they
// were running. Behaviour beyond that is opted into per call — see
// WithStore, WithWorkers and WithSurrogate.
func Build(ctx context.Context, sc Scale, opts ...Option) (*Dataset, error) {
	var bo buildOptions
	for _, opt := range opts {
		opt(&bo)
	}
	if bo.workers < 1 {
		bo.workers = runtime.GOMAXPROCS(0)
	}
	sc = sc.withDefaults()
	ds := &Dataset{
		Scale:         sc,
		results:       map[PhaseID]map[arch.Config]*entry{},
		traces:        map[PhaseID]*traceJob{},
		Best:          map[PhaseID]arch.Config{},
		Good:          map[PhaseID][]arch.Config{},
		FeaturesAdv:   map[PhaseID][]float64{},
		FeaturesBasic: map[PhaseID][]float64{},
		ProfileRes:    map[PhaseID]*cpu.Result{},
		store:         bo.store,
		pool:          newSimPool(ctx, bo.workers),
	}
	defer ds.pool.close()
	if bo.surrogate != nil {
		ds.sur = newSurrogateState(*bo.surrogate, sc.Seed)
	}

	tr := obs.DefaultTracer()
	root := tr.Start("experiment.build-dataset").
		SetArg("programs", strconv.Itoa(len(sc.Programs))).
		SetArg("phases-per-program", strconv.Itoa(sc.PhasesPerProgram))
	defer root.Finish()

	phaseIDs := sc.PhaseIDs()
	var rng *rand.Rand
	ds.SharedConfigs, rng = sharedSample(sc)

	// Queue the work that is fixed before the search starts, in phase
	// order: every trace, then every phase's stage-1 shared sample, then
	// the profiling runs. The search loop below consumes it in the same
	// order. The trace stage only validates each phase and queues its
	// trace; no job waits for a trace unless the store misses. A
	// surrogate build chooses its stage-1 simulations from what earlier
	// phases taught the model, so it cannot run stage 1 ahead.
	sp := tr.Start("tracegen")
	for _, id := range phaseIDs {
		tj, err := newTraceJob(id, sc.IntervalInsts)
		if err != nil {
			sp.Finish()
			return nil, err
		}
		ds.pool.submit(false, tj.task)
		ds.traces[id] = tj
		ds.Phases = append(ds.Phases, id)
	}
	sp.Finish()
	measure := cpu.Options{WarmupInsts: sc.WarmupInsts}
	stage1 := make([][]*simJob, len(phaseIDs))
	if ds.sur == nil {
		for i, id := range phaseIDs {
			for _, cfg := range ds.SharedConfigs {
				stage1[i] = append(stage1[i], ds.spawn(false, id, cfg, measure))
			}
		}
	}
	profOpts := cpu.Options{
		Collect:     true,
		SampledSets: sc.SampledSets,
		WarmupInsts: sc.WarmupInsts,
	}
	profiles := make([]*simJob, len(phaseIDs))
	for i, id := range phaseIDs {
		profiles[i] = ds.spawn(false, id, arch.Profiling(), profOpts)
	}

	// Simulate shared configs on every phase; refine per phase.
	ds.inSearch = true
	sp = tr.Start("search")
	for i, id := range ds.Phases {
		if err := ctx.Err(); err != nil {
			sp.Finish()
			return nil, fmt.Errorf("experiment: search cancelled: %w", err)
		}
		psp := tr.Start("search " + id.String())
		if err := ds.searchPhase(id, rng, stage1[i]); err != nil {
			psp.Finish()
			sp.Finish()
			return nil, fmt.Errorf("experiment: phase %s: %w", id, err)
		}
		psp.Finish()
		reportProgress("search", i+1, len(ds.Phases))
	}
	sp.Finish()
	ds.inSearch = false

	sp = tr.Start("best-static")
	ds.computeBestStatic()
	sp.Finish()
	sp = tr.Start("good-sets")
	ds.computeGoodSets()
	sp.Finish()

	// Profile every phase on the profiling configuration. The runs were
	// queued with the rest of the up-front work; spans, assignments and
	// progress land in phase order here.
	sp = tr.Start("profile")
	for i, id := range ds.Phases {
		if err := ctx.Err(); err != nil {
			sp.Finish()
			return nil, fmt.Errorf("experiment: profiling cancelled: %w", err)
		}
		psp := tr.Start("profile " + id.String())
		await(profiles, i)
		if err := ds.apply(profiles[i], false); err != nil {
			psp.Finish()
			sp.Finish()
			return nil, fmt.Errorf("experiment: profiling %s: %w", id, err)
		}
		psp.Finish()
		res := profiles[i].res
		ds.ProfileRes[id] = res
		ds.FeaturesAdv[id] = counters.Features(res, counters.Advanced)
		ds.FeaturesBasic[id] = counters.Features(res, counters.Basic)
		reportProgress("profile", i+1, len(ds.Phases))
	}
	sp.Finish()
	return ds, nil
}

// sharedSample draws the stage-1 shared uniform candidate pool (always
// anchored on the paper's published baseline so comparisons have a common
// anchor) and returns the rng advanced exactly past those draws. The
// per-phase search stages continue on the same stream, so the pool and
// the stream position are one deterministic unit.
func sharedSample(sc Scale) ([]arch.Config, *rand.Rand) {
	rng := rand.New(rand.NewPCG(sc.Seed, 0x5ca1ab1e))
	seen := map[arch.Config]bool{}
	var shared []arch.Config
	add := func(c arch.Config) {
		if !seen[c] {
			seen[c] = true
			shared = append(shared, c)
		}
	}
	add(arch.Baseline())
	for len(shared) < sc.UniformSamples {
		add(arch.Random(rng))
	}
	return shared, rng
}

// entry is one memoised simulation result, tagged by whether it belongs to
// the sample space (search protocol and limit studies) or was evaluated
// only to score a model prediction.
type entry struct {
	res      *cpu.Result
	inSample bool
}

// searchPhase runs the three-stage search for one phase. stage1 holds the
// phase's shared-sample jobs, queued on the pool when the build started;
// surrogate builds pass none and choose stage 1 themselves.
func (ds *Dataset) searchPhase(id PhaseID, rng *rand.Rand, stage1 []*simJob) error {
	if ds.sur != nil {
		return ds.searchPhaseSurrogate(id, rng)
	}
	// Stage 1: the shared uniform sample. The phase's memo is still empty
	// and the shared configurations are distinct, so every job is the
	// lookup the sequential SampleResult loop would make.
	if err := ds.applyBatch(id, ds.SharedConfigs, stage1); err != nil {
		return err
	}
	// Stage 2: local neighbours of the incumbent. Inherently sequential:
	// each draw refines the Best the previous one may have moved.
	for i := 0; i < ds.Scale.LocalSamples; i++ {
		if _, err := ds.SampleResult(id, arch.Neighbor(ds.Best[id], rng)); err != nil {
			return err
		}
	}
	// Stage 3: one-at-a-time sweep of selected parameters. Each
	// parameter's batch is fixed by the incumbent before the batch runs,
	// exactly like the sequential loop (Best can only move between
	// parameters, never mid-sweep input).
	for _, p := range ds.Scale.SweepParams {
		if err := ds.runBatch(id, arch.Sweep(ds.Best[id], p)); err != nil {
			return err
		}
	}
	return nil
}

// runBatch evaluates cfgs on one phase in sample mode, with exactly the
// effects of the sequential SampleResult loop: every configuration that is
// neither memoised nor a repeat within the batch is evaluated on the pool,
// ahead of the work queued at the start of the build, and applyBatch
// applies the results in cfgs order.
func (ds *Dataset) runBatch(id PhaseID, cfgs []arch.Config) error {
	if _, ok := ds.traces[id]; !ok {
		return fmt.Errorf("experiment: unknown phase %s", id)
	}
	measure := cpu.Options{WarmupInsts: ds.Scale.WarmupInsts}
	jobs := make([]*simJob, len(cfgs))
	seen := make(map[arch.Config]bool, len(cfgs))
	for i, cfg := range cfgs {
		if seen[cfg] {
			continue
		}
		seen[cfg] = true
		if _, hit := ds.results[id][cfg]; !hit {
			jobs[i] = ds.spawn(true, id, cfg, measure)
		}
	}
	return ds.applyBatch(id, cfgs, jobs)
}

// applyBatch applies the side effects of evaluating cfgs on one phase in
// sample mode — sample-space promotion, best updates, memo inserts and
// store appends — strictly in cfgs order, so the dataset and the store log
// come out byte-identical for any worker count. jobs[i] is cfgs[i]'s
// evaluation on the pool, or nil for a memo hit or a repeat within the
// batch, which SampleResult replays once its first occurrence has landed.
func (ds *Dataset) applyBatch(id PhaseID, cfgs []arch.Config, jobs []*simJob) error {
	var queued []*simJob
	for _, j := range jobs {
		if j != nil {
			queued = append(queued, j)
		}
	}
	k := 0
	for i, j := range jobs {
		if j == nil {
			if _, err := ds.SampleResult(id, cfgs[i]); err != nil {
				return err
			}
			continue
		}
		await(queued, k)
		k++
		if err := ds.apply(j, true); err != nil {
			return err
		}
	}
	return nil
}

// traceJob generates one phase's measured interval of n instructions.
type traceJob struct {
	*task
	n     int
	insts []trace.Inst
}

// newTraceJob validates the phase and builds its generator; the interval
// itself is generated when the job runs.
func newTraceJob(id PhaseID, n int) (*traceJob, error) {
	g, err := trace.NewGenerator(id.Program, id.Phase)
	if err != nil {
		return nil, err
	}
	j := &traceJob{n: n}
	j.task = newTask(func() { j.insts = g.Interval(n) })
	return j, nil
}

// get waits for the trace (generating it here if nobody has started).
func (j *traceJob) get() []trace.Inst {
	j.wait()
	return j.insts
}

// simJob is one simulation of a phase under a configuration, split in two:
// eval, which has no side effects and may run on any executor, and
// Dataset.apply, which the search loop calls in the sequential build's
// order.
type simJob struct {
	*task
	id     PhaseID
	cfg    arch.Config
	opts   cpu.Options
	trace  *traceJob
	key    store.Key
	res    *cpu.Result
	err    error
	stored bool // answered by the result store, not the simulator
}

// eval looks the run up in st — a profiling run (opts.Collect) under its
// own key — and only on a miss waits for the phase's trace and
// simulates it.
func (j *simJob) eval(st *store.Store) {
	if st != nil {
		if j.opts.Collect {
			j.key = store.ProfileFingerprint(j.id.Program, j.id.Phase, j.cfg, j.trace.n, j.opts.WarmupInsts, j.opts.SampledSets)
		} else {
			j.key = store.Fingerprint(j.id.Program, j.id.Phase, j.cfg, j.trace.n, j.opts.WarmupInsts)
		}
		if res, ok := st.Get(j.key); ok {
			j.res, j.stored = res, true
			return
		}
	}
	insts := j.trace.get()
	sim, err := cpu.New(j.cfg)
	if err != nil {
		j.err = err
		return
	}
	j.res, j.err = sim.Run(cpu.NewSliceSource(insts), len(insts), j.opts)
	sim.Release()
}

// spawn creates the job for (id, cfg) and hands it to the pool.
func (ds *Dataset) spawn(urgent bool, id PhaseID, cfg arch.Config, opts cpu.Options) *simJob {
	j := &simJob{id: id, cfg: cfg, opts: opts, trace: ds.traces[id]}
	st := ds.store
	j.task = newTask(func() { j.eval(st) })
	ds.pool.submit(urgent, j.task)
	return j
}

// apply records an evaluated job. A fresh result is counted and appended
// to the store right away (so an interrupted build loses nothing already
// paid for); a stored one is neither. Measurement-mode results are then
// memoised either way; profiling runs never are.
func (ds *Dataset) apply(j *simJob, inSample bool) error {
	if j.err != nil {
		return j.err
	}
	if !j.stored {
		obsSims.Inc()
		if inSample {
			ds.countExact()
		}
		if ds.store != nil {
			if err := ds.store.Put(j.key, j.res); err != nil {
				return fmt.Errorf("experiment: persisting %s result: %w", j.id, err)
			}
		}
	}
	if !j.opts.Collect {
		ds.memoize(j.id, j.cfg, j.res, inSample)
	}
	return nil
}

// Result simulates (memoised) the phase under cfg with the dataset's
// measurement options and no counter collection. Results obtained this way
// do not join the sample space (use SampleResult for that).
func (ds *Dataset) Result(id PhaseID, cfg arch.Config) (*cpu.Result, error) {
	if m := ds.results[id]; m != nil {
		if e, ok := m[cfg]; ok {
			obsMemoHits.Inc()
			return e.res, nil
		}
	}
	return ds.simulate(id, cfg, cpu.Options{WarmupInsts: ds.Scale.WarmupInsts}, false)
}

// SampleResult is Result, but the configuration joins the phase's sample
// space and may become its new Best.
func (ds *Dataset) SampleResult(id PhaseID, cfg arch.Config) (*cpu.Result, error) {
	if m := ds.results[id]; m != nil {
		if e, ok := m[cfg]; ok {
			obsMemoHits.Inc()
			if !e.inSample {
				e.inSample = true
				obsSampleConfigs.Inc()
				ds.updateBest(id, cfg, e.res)
			}
			return e.res, nil
		}
	}
	return ds.simulate(id, cfg, cpu.Options{WarmupInsts: ds.Scale.WarmupInsts}, true)
}

// updateBest promotes cfg to the phase's best if it wins.
func (ds *Dataset) updateBest(id PhaseID, cfg arch.Config, res *cpu.Result) {
	cur, ok := ds.Best[id]
	if !ok {
		ds.Best[id] = cfg
		return
	}
	if e := ds.results[id][cur]; e == nil || res.Efficiency > e.res.Efficiency {
		ds.Best[id] = cfg
	}
}

// simulate runs and memoises one (phase, config) simulation on the
// calling goroutine. With a store attached, every run is
// read-through/write-behind: a stored result short-circuits the simulator
// (and the phase's trace), a fresh one is appended to the log right away.
// Profiling runs (opts.Collect) are stored but never memoised (see apply).
func (ds *Dataset) simulate(id PhaseID, cfg arch.Config, opts cpu.Options, inSample bool) (*cpu.Result, error) {
	tj, ok := ds.traces[id]
	if !ok {
		return nil, fmt.Errorf("experiment: unknown phase %s", id)
	}
	j := &simJob{id: id, cfg: cfg, opts: opts, trace: tj}
	j.eval(ds.store)
	if err := ds.apply(j, inSample); err != nil {
		return nil, err
	}
	return j.res, nil
}

// memoize records one measurement-mode result in the in-memory table,
// applying the sample-space side effects exactly as a fresh simulation
// would — store hits must be indistinguishable from simulations here, or
// the oracle/Figure-7b semantics drift between cold and warm runs.
func (ds *Dataset) memoize(id PhaseID, cfg arch.Config, res *cpu.Result, inSample bool) {
	m := ds.results[id]
	if m == nil {
		m = map[arch.Config]*entry{}
		ds.results[id] = m
	}
	m[cfg] = &entry{res: res, inSample: inSample}
	if inSample {
		obsSampleConfigs.Inc()
		ds.updateBest(id, cfg, res)
	}
}

// SimCount returns the number of memoised simulations (for reporting).
func (ds *Dataset) SimCount() int {
	n := 0
	for _, m := range ds.results {
		n += len(m)
	}
	return n
}

// SampleSpace returns the phase's in-sample configurations in a
// deterministic (lexicographic) order — the exact partition the search
// protocol and limit studies draw from, exposed so tests can assert that
// warm store rebuilds reproduce it bit for bit.
func (ds *Dataset) SampleSpace(id PhaseID) []arch.Config {
	var out []arch.Config
	for cfg, e := range ds.results[id] {
		if e.inSample {
			out = append(out, cfg)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		for p := arch.Param(0); p < arch.NumParams; p++ {
			if out[i][p] != out[j][p] {
				return out[i][p] < out[j][p]
			}
		}
		return false
	})
	return out
}

// computeBestStatic picks the shared configuration with the best average
// energy-efficiency across all phases (geometric mean of per-phase
// efficiencies, matching the paper's "best energy-efficiency on average
// across the benchmarks"; a time-weighted total would instead be dominated
// by the slowest phases).
func (ds *Dataset) computeBestStatic() {
	if ds.sur != nil {
		ds.computeBestStaticSurrogate()
		return
	}
	bestScore := -1.0
	for _, cfg := range ds.SharedConfigs {
		var effs []float64
		for _, id := range ds.Phases {
			res, err := ds.Result(id, cfg)
			if err != nil {
				return
			}
			effs = append(effs, res.Efficiency)
		}
		if score := stats.GeoMean(effs); score > bestScore {
			bestScore = score
			ds.BestStatic = cfg
		}
	}
}

// computeGoodSets fills Good with every in-sample config within
// GoodThreshold of the phase best.
func (ds *Dataset) computeGoodSets() {
	for _, id := range ds.Phases {
		bestRes := ds.results[id][ds.Best[id]].res
		cut := bestRes.Efficiency * ds.Scale.GoodThreshold
		var good []arch.Config
		for cfg, e := range ds.results[id] {
			if e.inSample && e.res.Efficiency >= cut {
				good = append(good, cfg)
			}
		}
		// Tie-break equal efficiencies lexicographically: good comes out
		// of map iteration, so without a total order its layout (and
		// anything downstream that reads Good[0], like training targets)
		// would vary run to run.
		sort.Slice(good, func(i, j int) bool {
			ei, ej := ds.results[id][good[i]].res.Efficiency, ds.results[id][good[j]].res.Efficiency
			if ei != ej {
				return ei > ej
			}
			for p := arch.Param(0); p < arch.NumParams; p++ {
				if good[i][p] != good[j][p] {
					return good[i][p] < good[j][p]
				}
			}
			return false
		})
		ds.Good[id] = good
	}
}

// AggregateEfficiency computes the physically aggregated ips^3/Watt of
// running each phase under choose(phase): total instructions and energy
// over total simulated time.
func (ds *Dataset) AggregateEfficiency(phases []PhaseID, choose func(PhaseID) arch.Config) float64 {
	var insts float64
	var seconds, energy float64
	for _, id := range phases {
		res, err := ds.Result(id, choose(id))
		if err != nil {
			return 0
		}
		insts += float64(res.Committed)
		seconds += res.SecondsSim
		energy += res.EnergyJ
	}
	if seconds == 0 || energy == 0 {
		return 0
	}
	ips := insts / seconds
	watts := energy / seconds
	return ips * ips * ips / watts
}

// AggregatePerf returns (ips, joules) aggregated over phases under
// choose(phase) — the Figure 5 breakdown inputs.
func (ds *Dataset) AggregatePerf(phases []PhaseID, choose func(PhaseID) arch.Config) (ips, joules float64) {
	var insts, seconds, energy float64
	for _, id := range phases {
		res, err := ds.Result(id, choose(id))
		if err != nil {
			return 0, 0
		}
		insts += float64(res.Committed)
		seconds += res.SecondsSim
		energy += res.EnergyJ
	}
	if seconds == 0 {
		return 0, 0
	}
	return insts / seconds, energy
}

// RatioMean returns the geometric mean over phases of the per-phase
// efficiency ratio of choose(phase) against the best overall static
// configuration — the normalisation the paper's Figures 4 and 6 bars use.
func (ds *Dataset) RatioMean(phases []PhaseID, choose func(PhaseID) arch.Config) float64 {
	var ratios []float64
	for _, id := range phases {
		num, err := ds.Result(id, choose(id))
		if err != nil {
			return 0
		}
		den, err := ds.Result(id, ds.BestStatic)
		if err != nil || den.Efficiency <= 0 {
			return 0
		}
		ratios = append(ratios, num.Efficiency/den.Efficiency)
	}
	return stats.GeoMean(ratios)
}

// ProgramPhases returns the dataset's phases belonging to program.
func (ds *Dataset) ProgramPhases(program string) []PhaseID {
	var out []PhaseID
	for _, id := range ds.Phases {
		if id.Program == program {
			out = append(out, id)
		}
	}
	return out
}

// Programs returns the distinct program names in dataset order.
func (ds *Dataset) Programs() []string {
	var out []string
	seen := map[string]bool{}
	for _, id := range ds.Phases {
		if !seen[id.Program] {
			seen[id.Program] = true
			out = append(out, id.Program)
		}
	}
	return out
}
