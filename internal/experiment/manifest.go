package experiment

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"strings"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/obs"
	"repro/internal/store"
)

// FillBuildManifest records a finished dataset build into a run manifest,
// with the section split the manifest contract requires. Deterministic:
// the resolved scale, the store schema version and the dataset digest —
// everything a replay of the same configuration (cold or warm store, any
// worker count) reproduces byte-for-byte. Timing: the simulation/memoisation counters, which depend on
// store warm state (a warm replay pays for fewer simulations — that is
// the point) and so must never be diffed exactly. Every predictor TrainAll
// has trained so far adds its convergence record (FillTrainManifest) and
// train.<set>.predDigest, a digest of the configuration it predicts for
// every phase, in ds.Phases order.
func FillBuildManifest(m *obs.Manifest, ds *Dataset) {
	sc := ds.Scale
	m.SetDet("scale.programs", strings.Join(sc.Programs, ","))
	m.SetDet("scale.phasesPerProgram", sc.PhasesPerProgram)
	m.SetDet("scale.intervalInsts", sc.IntervalInsts)
	m.SetDet("scale.warmupInsts", sc.WarmupInsts)
	m.SetDet("scale.uniformSamples", sc.UniformSamples)
	m.SetDet("scale.localSamples", sc.LocalSamples)
	m.SetDet("scale.sweepParams", len(sc.SweepParams))
	m.SetDet("scale.goodThreshold", sc.GoodThreshold)
	m.SetDet("scale.sampledSets", sc.SampledSets)
	m.SetDet("scale.seed", sc.Seed)
	m.SetDet("simVersion", store.SimVersion)
	m.SetDet("datasetDigest", ds.Digest())
	m.SetDet("phases", len(ds.Phases))
	m.SetDet("sharedConfigs", len(ds.SharedConfigs))
	m.SetDet("simCount", ds.SimCount())
	for _, set := range []counters.Set{counters.Advanced, counters.Basic} {
		if p, ok := ds.trained[set]; ok {
			FillTrainManifest(m, p)
			m.SetDet("train."+set.String()+".predDigest", predDigest(ds.Phases, func(id PhaseID) arch.Config {
				return p.Predict(ds.features(set)[id])
			}))
		}
	}
	hits, sims := MemoStats()
	m.SetTiming("memoHits", float64(hits))
	m.SetTiming("simulationsRun", float64(sims))
	m.SetTiming("searchSims", float64(SearchSimCount()))
}

// FillTrainManifest records a trained predictor's per-parameter
// convergence in the manifest's deterministic section, under
// train.<set>.<Param>.{iters,evals,objective,gradNorm}. Training is
// deterministic, so any numerics change shows up in an obsdiff.
func FillTrainManifest(m *obs.Manifest, p *core.Predictor) {
	for param := arch.Param(0); param < arch.NumParams; param++ {
		st := p.Models[param].Stats
		key := "train." + p.Set.String() + "." + param.String() + "."
		m.SetDet(key+"iters", st.Iters)
		m.SetDet(key+"evals", st.Evals)
		m.SetDet(key+"objective", st.Objective)
		m.SetDet(key+"gradNorm", st.GradNorm)
	}
}

// FillEvalManifest records a leave-one-out evaluation in the manifest's
// deterministic section: eval.<set>.predDigest, a digest of the
// configuration predicted for every phase (phases sorted by program, then
// phase), and the fold models' convergence, eval.<set>.unconverged (models
// whose final gradient norm is at least TrainOptions().Tol) and
// eval.<set>.maxGradNorm. An obsdiff of two manifests thus shows whether
// any prediction moved.
func FillEvalManifest(m *obs.Manifest, ev *Evaluation) {
	ids := make([]PhaseID, 0, len(ev.Predicted))
	for id := range ev.Predicted {
		ids = append(ids, id)
	}
	slices.SortFunc(ids, func(a, b PhaseID) int {
		return cmp.Or(cmp.Compare(a.Program, b.Program), cmp.Compare(a.Phase, b.Phase))
	})
	unconverged, maxGrad := 0, 0.0
	tol := TrainOptions().Tol
	for _, st := range ev.FoldStats {
		if st.GradNorm >= tol {
			unconverged++
		}
		maxGrad = max(maxGrad, st.GradNorm)
	}
	key := "eval." + ev.Set.String() + "."
	m.SetDet(key+"predDigest", predDigest(ids, func(id PhaseID) arch.Config { return ev.Predicted[id] }))
	m.SetDet(key+"unconverged", unconverged)
	m.SetDet(key+"maxGradNorm", maxGrad)
}

// predDigest returns a hex SHA-256 over "phase configuration" lines, one
// per phase in the order given.
func predDigest(ids []PhaseID, choose func(PhaseID) arch.Config) string {
	h := sha256.New()
	for _, id := range ids {
		fmt.Fprintf(h, "%s %s\n", id, choose(id))
	}
	return hex.EncodeToString(h.Sum(nil))
}
