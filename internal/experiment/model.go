package experiment

import (
	"context"
	"fmt"

	"repro/internal/altmodel"
	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/obs"
	"repro/internal/softmax"
)

// features returns the phase's feature vector for the chosen counter set.
func (ds *Dataset) features(set counters.Set, id PhaseID) []float64 {
	if set == counters.Basic {
		return ds.FeaturesBasic[id]
	}
	return ds.FeaturesAdv[id]
}

// PerProgramStatic returns the best single configuration for one program:
// the candidate (shared pool plus the program's own per-phase bests) with
// the highest mean per-phase efficiency ratio over the program's phases
// (the specialised-static limit study of Figure 6). Candidate evaluations
// join the sample space, keeping the oracle an upper bound.
func (ds *Dataset) PerProgramStatic(program string) arch.Config {
	phases := ds.ProgramPhases(program)
	candidates := append([]arch.Config{}, ds.SharedConfigs...)
	for _, id := range phases {
		candidates = append(candidates, ds.Best[id])
	}
	bestScore := -1.0
	var best arch.Config
	for _, cfg := range candidates {
		for _, id := range phases {
			if _, err := ds.SampleResult(id, cfg); err != nil {
				return ds.BestStatic
			}
		}
		score := ds.RatioMean(phases, Static(cfg))
		if score > bestScore {
			bestScore = score
			best = cfg
		}
	}
	return best
}

// Oracle returns the per-phase best chooser (the ideal dynamic scheme of
// Figure 6).
func (ds *Dataset) Oracle() func(PhaseID) arch.Config {
	return func(id PhaseID) arch.Config { return ds.Best[id] }
}

// Static returns a chooser that always picks cfg.
func Static(cfg arch.Config) func(PhaseID) arch.Config {
	return func(PhaseID) arch.Config { return cfg }
}

// Evaluation holds a leave-one-out model evaluation: the configuration
// predicted for every phase by a model that never saw that phase's
// program during training.
type Evaluation struct {
	Set       counters.Set
	Predicted map[PhaseID]arch.Config
	// FoldStats holds the convergence record of every model EvaluateModel
	// trained: fold by fold in program order, parameters in order within
	// a fold.
	FoldStats []softmax.TrainStats
}

// Choose returns the evaluation's per-phase chooser.
func (e *Evaluation) Choose() func(PhaseID) arch.Config {
	return func(id PhaseID) arch.Config { return e.Predicted[id] }
}

// TrainOptions returns the soft-max options used throughout the harness:
// the paper's settings (lambda = 0.5, weights initialised to 1,
// Polak-Ribiere conjugate gradients), run close to convergence as the
// paper's off-line training does.
func TrainOptions() softmax.Options {
	o := softmax.DefaultOptions()
	o.MaxIter = 150
	return o
}

// phaseExamples assembles the training examples for the given phases.
func (ds *Dataset) phaseExamples(set counters.Set, phases []PhaseID) []core.PhaseExample {
	out := make([]core.PhaseExample, 0, len(phases))
	for _, id := range phases {
		out = append(out, core.PhaseExample{
			Features: ds.features(set, id),
			Good:     ds.Good[id],
		})
	}
	return out
}

// TrainAll trains a predictor on every phase in the dataset (no held-out
// program) — used by the controller examples and the storage analysis.
// The result is memoised per counter set, since several experiments share
// it.
func (ds *Dataset) TrainAll(set counters.Set) (*core.Predictor, error) {
	return ds.TrainAllCtx(context.Background(), set)
}

// TrainAllCtx is TrainAll with cooperative cancellation, forwarded to the
// per-parameter training loop.
func (ds *Dataset) TrainAllCtx(ctx context.Context, set counters.Set) (*core.Predictor, error) {
	if ds.trained == nil {
		ds.trained = map[counters.Set]*core.Predictor{}
	}
	if p, ok := ds.trained[set]; ok {
		return p, nil
	}
	sp := obs.DefaultTracer().Start("experiment.train " + set.String())
	defer sp.Finish()
	p, err := core.TrainPredictorCtx(ctx, set, ds.phaseExamples(set, ds.Phases), TrainOptions())
	if err != nil {
		return nil, err
	}
	ds.trained[set] = p
	return p, nil
}

// EvaluateModel performs the paper's leave-one-out cross-validation: for
// each program, a predictor trained on all other programs predicts each of
// its phases.
func (ds *Dataset) EvaluateModel(set counters.Set) (*Evaluation, error) {
	return ds.EvaluateModelCtx(context.Background(), set)
}

// EvaluateModelCtx is EvaluateModel with cooperative cancellation, checked
// per fold and forwarded into training.
func (ds *Dataset) EvaluateModelCtx(ctx context.Context, set counters.Set) (*Evaluation, error) {
	tr := obs.DefaultTracer()
	stage := "loocv " + set.String()
	sp := tr.Start("experiment." + stage)
	defer sp.Finish()
	ev := &Evaluation{Set: set, Predicted: map[PhaseID]arch.Config{}}
	progs := ds.Programs()
	for i, held := range progs {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("experiment: LOOCV cancelled: %w", err)
		}
		fsp := tr.Start("fold " + held)
		var trainPhases []PhaseID
		for _, id := range ds.Phases {
			if id.Program != held {
				trainPhases = append(trainPhases, id)
			}
		}
		if len(trainPhases) == 0 {
			fsp.Finish()
			return nil, fmt.Errorf("experiment: no training phases when holding out %s", held)
		}
		pred, err := core.TrainPredictorCtx(ctx, set, ds.phaseExamples(set, trainPhases), TrainOptions())
		if err != nil {
			fsp.Finish()
			return nil, fmt.Errorf("experiment: LOOCV fold %s: %w", held, err)
		}
		for _, id := range ds.ProgramPhases(held) {
			ev.Predicted[id] = pred.Predict(ds.features(set, id))
		}
		for _, m := range pred.Models {
			ev.FoldStats = append(ev.FoldStats, m.Stats)
		}
		fsp.Finish()
		reportProgress(stage, i+1, len(progs))
	}
	return ev, nil
}

// EvaluateModelAblated performs a grouped held-out evaluation with one
// counter family removed (zeroed) from the Advanced features in both
// training and prediction — the ablation study quantifying what each
// family of Table II counters contributes. Programs are held out in
// groups of up to six (instead of the full leave-one-out) to keep the
// five-family sweep affordable; predictions remain honest (a program's
// phases are never in its own training set).
func (ds *Dataset) EvaluateModelAblated(prefix string) (*Evaluation, error) {
	ablated := map[PhaseID][]float64{}
	for _, id := range ds.Phases {
		ablated[id] = counters.AblateFamily(ds.FeaturesAdv[id], prefix)
	}
	progs := ds.Programs()
	const groupSize = 6
	ev := &Evaluation{Set: counters.Advanced, Predicted: map[PhaseID]arch.Config{}}
	for start := 0; start < len(progs); start += groupSize {
		end := start + groupSize
		if end > len(progs) {
			end = len(progs)
		}
		held := map[string]bool{}
		for _, p := range progs[start:end] {
			held[p] = true
		}
		var phases []core.PhaseExample
		var heldIDs []PhaseID
		for _, id := range ds.Phases {
			if held[id.Program] {
				heldIDs = append(heldIDs, id)
				continue
			}
			phases = append(phases, core.PhaseExample{Features: ablated[id], Good: ds.Good[id]})
		}
		if len(phases) == 0 {
			return nil, fmt.Errorf("experiment: ablation fold %d has no training phases", start/groupSize)
		}
		pred, err := core.TrainPredictor(counters.Advanced, phases, TrainOptions())
		if err != nil {
			return nil, fmt.Errorf("experiment: ablated fold %d: %w", start/groupSize, err)
		}
		for _, id := range heldIDs {
			ev.Predicted[id] = pred.Predict(ablated[id])
		}
	}
	return ev, nil
}

// EvaluateAltModel runs the leave-one-out evaluation for one of the
// alternative predictors (internal/altmodel), fed the same advanced
// features and per-phase best configurations — the comparison behind the
// paper's footnote that soft-max beat the other approaches tried.
func (ds *Dataset) EvaluateAltModel(build func([]altmodel.TrainingPhase) (altmodel.Predictor, error)) (*Evaluation, error) {
	ev := &Evaluation{Set: counters.Advanced, Predicted: map[PhaseID]arch.Config{}}
	for _, held := range ds.Programs() {
		var train []altmodel.TrainingPhase
		var heldIDs []PhaseID
		for _, id := range ds.Phases {
			if id.Program == held {
				heldIDs = append(heldIDs, id)
				continue
			}
			train = append(train, altmodel.TrainingPhase{
				Features: ds.FeaturesAdv[id],
				Best:     ds.Best[id],
			})
		}
		m, err := build(train)
		if err != nil {
			return nil, fmt.Errorf("experiment: alt model fold %s: %w", held, err)
		}
		for _, id := range heldIDs {
			ev.Predicted[id] = m.Predict(ds.FeaturesAdv[id])
		}
	}
	return ev, nil
}
