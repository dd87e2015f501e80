package experiment

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"repro/internal/altmodel"
	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/obs"
	"repro/internal/softmax"
)

// features returns every phase's feature vector for the chosen counter set.
func (ds *Dataset) features(set counters.Set) map[PhaseID][]float64 {
	if set == counters.Basic {
		return ds.FeaturesBasic
	}
	return ds.FeaturesAdv
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

// Evaluation holds a held-out model evaluation: the configuration
// predicted for every phase by a model that never saw that phase's
// program during training.
type Evaluation struct {
	Set       counters.Set
	Predicted map[PhaseID]arch.Config
	// FoldStats holds the convergence record of every soft-max model the
	// evaluation trained: fold by fold in program order, parameters in
	// order within a fold.
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
func (ds *Dataset) phaseExamples(features map[PhaseID][]float64, phases []PhaseID) []core.PhaseExample {
	out := make([]core.PhaseExample, len(phases))
	for i, id := range phases {
		out[i] = core.PhaseExample{Features: features[id], Good: ds.Good[id]}
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
	p, err := core.TrainPredictorCtx(ctx, set, ds.phaseExamples(ds.features(set), ds.Phases), TrainOptions())
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
	return ds.heldOut(ctx, "loocv "+set.String(), set, 1, ds.features(set), ds.softmaxFit(set))
}

// EvaluateModelAblated performs a grouped held-out evaluation with one
// counter family removed (zeroed) from the Advanced features in both
// training and prediction — the ablation study quantifying what each
// family of Table II counters contributes. Programs are held out in
// groups of up to six (instead of the full leave-one-out) to keep the
// five-family sweep affordable; predictions remain honest (a program's
// phases are never in its own training set).
func (ds *Dataset) EvaluateModelAblated(prefix string) (*Evaluation, error) {
	return ds.evaluateAblated(prefix, ablationGroup(len(ds.Programs())))
}

// ablationGroup is the ablation's held-out group size for a dataset of
// the given number of programs: six, but never every program, so each
// fold keeps at least one program to train on.
func ablationGroup(programs int) int { return max(1, min(6, programs-1)) }

// evaluateAblated is EvaluateModelAblated with groupSize programs held out
// per fold.
func (ds *Dataset) evaluateAblated(prefix string, groupSize int) (*Evaluation, error) {
	ablated := make(map[PhaseID][]float64, len(ds.Phases))
	for _, id := range ds.Phases {
		ablated[id] = counters.AblateFamily(ds.FeaturesAdv[id], prefix)
	}
	return ds.heldOut(context.Background(), "ablation "+prefix, counters.Advanced, groupSize, ablated, ds.softmaxFit(counters.Advanced))
}

// EvaluateAltModel runs the leave-one-out evaluation for one of the
// alternative predictors (internal/altmodel), fed the same advanced
// features and per-phase best configurations — the comparison behind the
// paper's footnote that soft-max beat the other approaches tried.
func (ds *Dataset) EvaluateAltModel(build func([]altmodel.TrainingPhase) (altmodel.Predictor, error)) (*Evaluation, error) {
	return ds.heldOut(context.Background(), "altmodel", counters.Advanced, 1, ds.FeaturesAdv,
		func(_ context.Context, train []PhaseID, features map[PhaseID][]float64) (altmodel.Predictor, error) {
			phases := make([]altmodel.TrainingPhase, len(train))
			for i, id := range train {
				phases[i] = altmodel.TrainingPhase{Features: features[id], Best: ds.Best[id]}
			}
			return build(phases)
		})
}

// fitter trains a fold's model on its training phases, whose feature
// vectors features holds.
type fitter func(ctx context.Context, train []PhaseID, features map[PhaseID][]float64) (altmodel.Predictor, error)

// softmaxFit trains the paper's predictor on the phases' good
// configurations.
func (ds *Dataset) softmaxFit(set counters.Set) fitter {
	return func(ctx context.Context, train []PhaseID, features map[PhaseID][]float64) (altmodel.Predictor, error) {
		p, err := core.TrainPredictorCtx(ctx, set, ds.phaseExamples(features, train), TrainOptions())
		if err != nil {
			return nil, err
		}
		return p, nil
	}
}

// heldOut is the one held-out evaluation loop. Programs are held out
// groupSize at a time, in program order: each fold fits a model on every
// other program's phases, in dataset order, and predicts the held-out
// phases with it, from the same feature vectors. The loop runs under an
// "experiment.<stage>" span and each fold under a "fold <programs>" span,
// progress is reported per fold under stage, and cancellation is checked
// per fold and forwarded to fit. A soft-max fold's convergence records
// join FoldStats.
func (ds *Dataset) heldOut(ctx context.Context, stage string, set counters.Set, groupSize int, features map[PhaseID][]float64, fit fitter) (*Evaluation, error) {
	tr := obs.DefaultTracer()
	sp := tr.Start("experiment." + stage)
	defer sp.Finish()
	ev := &Evaluation{Set: set, Predicted: map[PhaseID]arch.Config{}}
	progs := ds.Programs()
	folds := (len(progs) + groupSize - 1) / groupSize
	for f := 0; f < folds; f++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("experiment: %s cancelled: %w", stage, err)
		}
		group := progs[f*groupSize : min(len(progs), (f+1)*groupSize)]
		name := strings.Join(group, "+")
		fsp := tr.Start("fold " + name)
		var train, held []PhaseID
		for _, id := range ds.Phases {
			if slices.Contains(group, id.Program) {
				held = append(held, id)
			} else {
				train = append(train, id)
			}
		}
		if len(train) == 0 {
			fsp.Finish()
			return nil, fmt.Errorf("experiment: %s: no training phases when holding out %s", stage, name)
		}
		m, err := fit(ctx, train, features)
		if err != nil {
			fsp.Finish()
			return nil, fmt.Errorf("experiment: %s fold %s: %w", stage, name, err)
		}
		for _, id := range held {
			ev.Predicted[id] = m.Predict(features[id])
		}
		if p, ok := m.(*core.Predictor); ok {
			for _, sm := range p.Models {
				ev.FoldStats = append(ev.FoldStats, sm.Stats)
			}
		}
		fsp.Finish()
		reportProgress(stage, f+1, folds)
	}
	return ev, nil
}
