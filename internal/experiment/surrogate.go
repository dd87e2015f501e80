package experiment

import (
	"math"
	"math/rand/v2"
	"sort"
	"strconv"

	"repro/internal/arch"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/surrogate"
	"repro/internal/trace"
)

// WithSurrogate turns on surrogate-guided pruning of the design-space
// search: each candidate batch is ranked by a ridge model trained
// incrementally on every exact result the build produces, and only the
// top-K shortlist plus a seeded random audit slice is exact-simulated.
//
// The surrogate is an accelerator, never an authority. Its estimates are
// used solely to *choose which configurations to simulate* (and to order
// the best-static scan); they never enter the memo table, the sample
// space or the good sets — those see exact simulator results only, so the
// oracle and Figure-7b semantics are unchanged. Pruning does shrink the
// sample space (that is the point), so datasets built with the surrogate
// are not byte-identical to plain builds; builds without this option are
// untouched. Everything remains deterministic per seed, for any worker
// count, and independent of result-store state: the shortlist is decided
// before the store is consulted, so cold and warm builds select — and
// therefore produce — exactly the same dataset.
func WithSurrogate(cfg surrogate.Config) Option {
	return func(o *buildOptions) { o.surrogate = &cfg }
}

// surrogateState is the per-build pruning state.
type surrogateState struct {
	cfg   surrogate.Config
	model *surrogate.Model
	rng   *rand.Rand // audit draws only; the search rng is untouched

	feats    map[PhaseID][]float64            // Featurize(trace.Measure) cache
	observed map[PhaseID]map[arch.Config]bool // guards double-training

	// Telemetry sums (mirrored into the obs gauges as running means).
	pruned, audited, exact uint64
	corrSum                float64
	corrN                  int
	regretSum              float64
	regretN                int
}

func newSurrogateState(cfg surrogate.Config, scaleSeed uint64) *surrogateState {
	cfg = cfg.Normalized()
	seed := cfg.Seed
	if seed == 0 {
		seed = scaleSeed
	}
	return &surrogateState{
		cfg:      cfg,
		model:    surrogate.NewModel(surrogate.PhaseDim, cfg),
		rng:      rand.New(rand.NewPCG(seed, 0xa0d17ca11)),
		feats:    map[PhaseID][]float64{},
		observed: map[PhaseID]map[arch.Config]bool{},
	}
}

// countExact attributes one exact in-sample simulation to the search
// budget (see obsSimsExact).
func (ds *Dataset) countExact() {
	if !ds.inSearch {
		return
	}
	obsSimsExact.Inc()
	if ds.sur != nil {
		ds.sur.exact++
	}
}

// phaseFeatures returns the cached surrogate feature vector for a phase.
// Trace statistics are available before any simulation, unlike profiling
// counters (profiling runs after the search), so the surrogate can rank
// from the very first batch. It is the one reader that waits for a
// phase's trace even when the store holds every result.
func (s *surrogateState) phaseFeatures(ds *Dataset, id PhaseID) []float64 {
	if f, ok := s.feats[id]; ok {
		return f
	}
	f := surrogate.Featurize(trace.Measure(ds.traces[id].get()))
	s.feats[id] = f
	return f
}

// maybeFit refits the ridge model if enough observations arrived. A solve
// failure (numerically impossible with lambda > 0, but cheap to tolerate)
// just leaves the previous weights in place — or, before the first fit,
// keeps the model un-ready, which disables pruning: the safe fallback.
func (s *surrogateState) maybeFit() {
	m := s.model
	if m.Observations() < s.cfg.MinTrain {
		return
	}
	if m.Ready() && m.SinceFit() < s.cfg.Refit {
		return
	}
	// Span args stay deterministic: the observation count is a pure
	// function of the build's progress, never of timing or store state.
	sp := obs.DefaultTracer().Start("surrogate.fit").
		SetArg("observations", strconv.Itoa(m.Observations()))
	_ = m.Fit()
	sp.Finish()
}

// observe trains the model on one exact result, at most once per
// (phase, config) so repeated promotions don't double-weight a sample.
func (s *surrogateState) observe(ds *Dataset, id PhaseID, cfg arch.Config) {
	seen := s.observed[id]
	if seen == nil {
		seen = map[arch.Config]bool{}
		s.observed[id] = seen
	}
	if seen[cfg] {
		return
	}
	e := ds.results[id][cfg]
	if e == nil {
		return
	}
	seen[cfg] = true
	s.model.Observe(s.phaseFeatures(ds, id), cfg, e.res.Efficiency)
}

// pickAudit draws k distinct elements from pool without replacement
// (partial Fisher-Yates on a copy), returning them sorted ascending so
// downstream evaluation order is position-stable.
func pickAudit(rng *rand.Rand, pool []int, k int) []int {
	if k >= len(pool) {
		out := append([]int(nil), pool...)
		sort.Ints(out)
		return out
	}
	tmp := append([]int(nil), pool...)
	out := make([]int, 0, k)
	for i := 0; i < k; i++ {
		j := i + rng.IntN(len(tmp)-i)
		tmp[i], tmp[j] = tmp[j], tmp[i]
		out = append(out, tmp[i])
	}
	sort.Ints(out)
	return out
}

// surveyBatch is the surrogate-mode replacement for runBatch: it decides
// which of cfgs deserve exact simulation, runs exactly those, and trains
// the model on the results.
//
// The selection depends only on the memo table, the model and the audit
// rng — never on the result store — so cold and warm builds choose the
// same shortlist (store hits then merely make the chosen simulations
// free, exactly as CLAUDE.md requires of them). Memoised candidates are
// always promoted: their exact result is already paid for, pruning it
// would discard information.
func (ds *Dataset) surveyBatch(id PhaseID, cfgs []arch.Config) error {
	s := ds.sur
	s.maybeFit()

	ph := s.phaseFeatures(ds, id)
	seen := make(map[arch.Config]bool, len(cfgs))
	known := make([]int, 0, len(cfgs))
	unknown := make([]int, 0, len(cfgs))
	for i, cfg := range cfgs {
		if seen[cfg] {
			continue
		}
		seen[cfg] = true
		if m := ds.results[id]; m != nil {
			if _, hit := m[cfg]; hit {
				known = append(known, i)
				continue
			}
		}
		unknown = append(unknown, i)
	}

	selected := unknown
	var scores []float64 // predicted log-eff by batch index, nil when not pruning
	var topk map[arch.Config]bool
	if s.model.Ready() && len(unknown) > s.cfg.ShortlistSize(len(unknown)) {
		cands := make([]arch.Config, len(unknown))
		for i, idx := range unknown {
			cands[i] = cfgs[idx]
		}
		sp := obs.DefaultTracer().Start("surrogate.rank "+id.String()).
			SetArg("candidates", strconv.Itoa(len(unknown)))
		order, candScores := s.model.Rank(ph, cands)
		k := s.cfg.ShortlistSize(len(unknown))
		keep, rest := order[:k], order[k:]
		a := s.cfg.AuditSize(len(rest))
		audit := pickAudit(s.rng, rest, a)
		sp.SetArg("shortlist", strconv.Itoa(k)).SetArg("audit", strconv.Itoa(a))
		sp.Finish()
		topk = make(map[arch.Config]bool, k)
		for _, j := range keep {
			topk[cands[j]] = true
		}
		sel := append(append([]int(nil), keep...), audit...)
		sort.Ints(sel) // back to batch order: evaluation order stays position-stable
		selected = make([]int, len(sel))
		for i, j := range sel {
			selected[i] = unknown[j]
		}
		nPruned := uint64(len(rest) - a)
		s.pruned += nPruned
		s.audited += uint64(a)
		obsSurrogatePruned.Add(nPruned)
		obsSurrogateAudited.Add(uint64(a))
		scores = make([]float64, len(cfgs))
		for i, idx := range unknown {
			scores[idx] = candScores[i]
		}
	}

	// Evaluate promotions and the shortlist in batch order through
	// runBatch, which handles memo, store and the worker fan-out with the
	// usual byte-identical side-effect ordering.
	eval := append(append([]int(nil), known...), selected...)
	sort.Ints(eval)
	evalCfgs := make([]arch.Config, len(eval))
	for i, idx := range eval {
		evalCfgs[i] = cfgs[idx]
	}
	if err := ds.runBatch(id, evalCfgs); err != nil {
		return err
	}
	for _, cfg := range evalCfgs {
		s.observe(ds, id, cfg)
	}

	// Audit metrics: over the exact-simulated slice, compare the model's
	// ordering with reality (rank correlation) and measure what the
	// shortlist left on the table against the audited candidates (regret).
	if scores != nil && len(selected) >= 2 {
		pred := make([]float64, 0, len(selected))
		actual := make([]float64, 0, len(selected))
		bestAll, bestKeep := math.Inf(-1), math.Inf(-1)
		for _, idx := range selected {
			cfg := cfgs[idx]
			e := ds.results[id][cfg]
			if e == nil {
				continue
			}
			pred = append(pred, scores[idx])
			actual = append(actual, e.res.Efficiency)
			if e.res.Efficiency > bestAll {
				bestAll = e.res.Efficiency
			}
			if topk[cfg] && e.res.Efficiency > bestKeep {
				bestKeep = e.res.Efficiency
			}
		}
		if len(pred) >= 3 {
			s.corrSum += surrogate.Spearman(pred, actual)
			s.corrN++
			obsSurrogateRankCorr.Set(s.corrSum / float64(s.corrN))
		}
		if bestAll > 0 && !math.IsInf(bestKeep, -1) {
			regret := 1 - bestKeep/bestAll
			if regret < 0 {
				regret = 0
			}
			s.regretSum += regret
			s.regretN++
			obsSurrogateRegret.Set(s.regretSum / float64(s.regretN))
		}
		if mae, n := s.model.Calibration(); n > 0 {
			obsSurrogateCalibMAE.Set(mae)
		}
	}
	return nil
}

// searchPhaseSurrogate is searchPhase with every stage routed through
// surveyBatch. Stage 2 draws all its neighbours of the post-stage-1
// incumbent up front (the off-mode path refines Best draw by draw; under
// pruning a single ranked batch spends the same budget better). The
// search rng consumption therefore differs from the plain build — allowed,
// because surrogate-on builds are a different (still deterministic)
// protocol; the plain path is untouched.
func (ds *Dataset) searchPhaseSurrogate(id PhaseID, rng *rand.Rand) error {
	if err := ds.surveyBatch(id, ds.SharedConfigs); err != nil {
		return err
	}
	if n := ds.Scale.LocalSamples; n > 0 {
		cands := make([]arch.Config, 0, n)
		for i := 0; i < n; i++ {
			cands = append(cands, arch.Neighbor(ds.Best[id], rng))
		}
		if err := ds.surveyBatch(id, cands); err != nil {
			return err
		}
	}
	for _, p := range ds.Scale.SweepParams {
		if err := ds.surveyBatch(id, arch.Sweep(ds.Best[id], p)); err != nil {
			return err
		}
	}
	return nil
}

// computeBestStaticSurrogate picks the best overall static configuration
// when pruning has left holes in the shared-sample results: every shared
// config is scored by mean log efficiency across phases using exact
// results where memoised and surrogate estimates elsewhere, then the top
// few are validated with fully exact geometric means (via Result, so the
// validation sims stay out of the sample space) and the winner of that
// exact comparison becomes BestStatic. Estimates influence which configs
// get validated — a search decision — never the recorded score.
func (ds *Dataset) computeBestStaticSurrogate() {
	s := ds.sur
	sp := obs.DefaultTracer().Start("surrogate.best-static").
		SetArg("shared", strconv.Itoa(len(ds.SharedConfigs)))
	defer sp.Finish()
	s.maybeFit()
	type scored struct {
		idx   int
		score float64
	}
	ranked := make([]scored, 0, len(ds.SharedConfigs))
	for i, cfg := range ds.SharedConfigs {
		sum, n := 0.0, 0
		for _, id := range ds.Phases {
			if m := ds.results[id]; m != nil {
				if e, ok := m[cfg]; ok {
					if e.res.Efficiency > 0 {
						sum += math.Log(e.res.Efficiency)
						n++
					}
					continue
				}
			}
			if s.model.Ready() {
				sum += s.model.Predict(s.phaseFeatures(ds, id), cfg)
				n++
			}
		}
		sc := math.Inf(-1)
		if n > 0 {
			sum /= float64(n)
			sc = sum
		}
		ranked = append(ranked, scored{i, sc})
	}
	sort.SliceStable(ranked, func(a, b int) bool { return ranked[a].score > ranked[b].score })

	const validate = 3
	bestScore := -1.0
	for i := 0; i < len(ranked) && i < validate; i++ {
		cfg := ds.SharedConfigs[ranked[i].idx]
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

// perProgramStaticSurrogate prunes the per-program limit study the same
// way the search is pruned: candidates are ranked by mean (exact where
// known, estimated elsewhere) log efficiency over the program's phases,
// and only the shortlist plus an audit slice is exact-evaluated. The
// best-overall-static configuration is always evaluated too, anchoring
// the argmax so the per-program row can never fall below 1.0, and every
// exact evaluation joins the sample space exactly as in the plain path,
// keeping the oracle an upper bound.
func (ds *Dataset) perProgramStaticSurrogate(program string) arch.Config {
	s := ds.sur
	s.maybeFit()
	phases := ds.ProgramPhases(program)

	candidates := append([]arch.Config{}, ds.SharedConfigs...)
	for _, id := range phases {
		candidates = append(candidates, ds.Best[id])
	}
	seen := map[arch.Config]bool{}
	evaluate := map[arch.Config]bool{ds.BestStatic: true}
	var unknown []int
	for i, cfg := range candidates {
		if seen[cfg] {
			continue
		}
		seen[cfg] = true
		if cfg == ds.BestStatic {
			continue
		}
		unknown = append(unknown, i)
	}

	if s.model.Ready() && len(unknown) > s.cfg.ShortlistSize(len(unknown)) {
		sp := obs.DefaultTracer().Start("surrogate.shortlist "+program).
			SetArg("candidates", strconv.Itoa(len(unknown)))
		score := func(cfg arch.Config) float64 {
			sum, n := 0.0, 0
			for _, id := range phases {
				if m := ds.results[id]; m != nil {
					if e, ok := m[cfg]; ok && e.res.Efficiency > 0 {
						sum += math.Log(e.res.Efficiency)
						n++
						continue
					}
				}
				sum += s.model.Predict(s.phaseFeatures(ds, id), cfg)
				n++
			}
			if n == 0 {
				return math.Inf(-1)
			}
			return sum / float64(n)
		}
		order := append([]int(nil), unknown...)
		scores := map[int]float64{}
		for _, i := range unknown {
			scores[i] = score(candidates[i])
		}
		sort.SliceStable(order, func(a, b int) bool {
			if scores[order[a]] != scores[order[b]] {
				return scores[order[a]] > scores[order[b]]
			}
			return order[a] < order[b]
		})
		k := s.cfg.ShortlistSize(len(unknown))
		keep, rest := order[:k], order[k:]
		a := s.cfg.AuditSize(len(rest))
		audit := pickAudit(s.rng, rest, a)
		for _, i := range keep {
			evaluate[candidates[i]] = true
		}
		for _, i := range audit {
			evaluate[candidates[i]] = true
		}
		nPruned := uint64(len(rest) - a)
		s.pruned += nPruned
		s.audited += uint64(a)
		obsSurrogatePruned.Add(nPruned)
		obsSurrogateAudited.Add(uint64(a))
		sp.SetArg("shortlist", strconv.Itoa(k)).SetArg("audit", strconv.Itoa(a))
		sp.Finish()
	} else {
		for _, i := range unknown {
			evaluate[candidates[i]] = true
		}
	}

	bestScore := -1.0
	best := ds.BestStatic
	done := map[arch.Config]bool{}
	scan := append([]arch.Config{ds.BestStatic}, candidates...)
	for _, cfg := range scan {
		if !evaluate[cfg] || done[cfg] {
			continue
		}
		done[cfg] = true
		for _, id := range phases {
			if _, err := ds.SampleResult(id, cfg); err != nil {
				return ds.BestStatic
			}
			s.observe(ds, id, cfg)
		}
		score := ds.RatioMean(phases, Static(cfg))
		if score > bestScore {
			bestScore = score
			best = cfg
		}
	}
	return best
}

// SurrogateSummary reports the surrogate's lifetime statistics for this
// dataset build (nil when the build ran without WithSurrogate). Exact is
// the number of exact simulations the three-stage search paid for —
// repro_sims_exact, the counter the >=2x reduction claim is measured on;
// Pruned and Audited count candidate evaluations skipped and
// spot-checked across the search and the per-program limit study.
type SurrogateSummary struct {
	Exact        uint64
	Pruned       uint64
	Audited      uint64
	Observations int
	Fits         int
	// RankCorr is the mean Spearman correlation between predicted and
	// exact orderings over audited batches; Regret the mean efficiency
	// the shortlist's best gave up against the audited best (0 = the
	// shortlist always contained the winner). CalibMAE is the model's
	// prequential mean absolute error in log-efficiency.
	RankCorr float64
	Regret   float64
	CalibMAE float64
}

// SurrogateSummary returns the build's surrogate statistics, or nil for a
// plain build.
func (ds *Dataset) SurrogateSummary() *SurrogateSummary {
	s := ds.sur
	if s == nil {
		return nil
	}
	out := &SurrogateSummary{
		Exact:        s.exact,
		Pruned:       s.pruned,
		Audited:      s.audited,
		Observations: s.model.Observations(),
		Fits:         s.model.Fits(),
	}
	if s.corrN > 0 {
		out.RankCorr = s.corrSum / float64(s.corrN)
	}
	if s.regretN > 0 {
		out.Regret = s.regretSum / float64(s.regretN)
	}
	out.CalibMAE, _ = s.model.Calibration()
	return out
}
