// Package core implements the paper's contribution: the predictive
// adaptivity controller. It bundles fourteen per-parameter soft-max models
// into a configuration predictor (Section IV), models the cost of
// reconfiguring each hardware structure (Section VIII, Table V), and runs
// the monitor -> profile -> predict -> reconfigure loop of Figure 2 on top
// of the cycle-level simulator.
package core

import (
	"context"
	"fmt"

	"repro/internal/arch"
	"repro/internal/counters"
	"repro/internal/obs"
	"repro/internal/softmax"
)

// PhaseExample is one training phase: its profiling-configuration feature
// vector and the set of good configurations (within 5% of the best found,
// paper §IV-D).
type PhaseExample struct {
	Features []float64
	Good     []arch.Config
}

// Predictor maps a phase's hardware-counter features to the predicted best
// configuration, one independent soft-max model per parameter (paper
// eq. 1: parameters are conditionally independent given the counters).
// A freshly trained predictor carries each model's convergence record in
// Models[param].Stats; the wire format does not, so a loaded one has zero
// stats.
type Predictor struct {
	Set    counters.Set
	Models [arch.NumParams]*softmax.Model
}

// TrainPredictor fits the fourteen per-parameter models on the given
// phases. Each phase contributes one example per good configuration, per
// parameter.
func TrainPredictor(set counters.Set, phases []PhaseExample, opts softmax.Options) (*Predictor, error) {
	return TrainPredictorCtx(context.Background(), set, phases, opts)
}

// TrainPredictorCtx is TrainPredictor with cooperative cancellation,
// checked between the fourteen per-parameter trainings (each is a full
// conjugate-gradient run, so this is the useful granularity). The phases'
// vectors are validated and projected once, into one softmax.TrainingSet;
// each parameter's model is trained from it under a "train <Param>" span.
func TrainPredictorCtx(ctx context.Context, set counters.Set, phases []PhaseExample, opts softmax.Options) (*Predictor, error) {
	xs := make([][]float64, len(phases))
	labels := make([][]int, len(phases))
	for i, ph := range phases {
		xs[i], labels[i] = ph.Features, make([]int, len(ph.Good))
	}
	ts, err := softmax.NewTrainingSet(counters.Dim(set), xs)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	p := &Predictor{Set: set}
	for param := arch.Param(0); param < arch.NumParams; param++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: training cancelled: %w", err)
		}
		for i, ph := range phases {
			for j, cfg := range ph.Good {
				if labels[i][j] = arch.IndexOf(param, cfg[param]); labels[i][j] < 0 {
					return nil, fmt.Errorf("core: phase %d good config has invalid %s=%d", i, param, cfg[param])
				}
			}
		}
		sp := obs.DefaultTracer().Start("train " + param.String())
		m, err := ts.Train(arch.DomainSize(param), labels, opts)
		sp.Finish()
		if err != nil {
			return nil, fmt.Errorf("core: training %s model: %w", param, err)
		}
		p.Models[param] = m
	}
	return p, nil
}

// Predict returns the configuration whose every parameter maximises its
// per-parameter model score for the given features (paper eq. 2, 8-9).
func (p *Predictor) Predict(features []float64) arch.Config {
	var ix [arch.NumParams]int
	for param := arch.Param(0); param < arch.NumParams; param++ {
		ix[param] = p.Models[param].Predict(features)
	}
	return arch.FromIndices(ix)
}

// WeightCount returns the total number of weights across all fourteen
// models (the paper counts ~2000 for its counter set).
func (p *Predictor) WeightCount() int {
	n := 0
	for _, m := range p.Models {
		if m != nil {
			n += len(m.W)
		}
	}
	return n
}

// QuantizedPredictor is the 8-bit hardware form of the predictor (§VIII).
type QuantizedPredictor struct {
	Set    counters.Set
	Models [arch.NumParams]*softmax.Quantized
}

// Quantize converts every per-parameter model to 8-bit weights.
func (p *Predictor) Quantize() *QuantizedPredictor {
	q := &QuantizedPredictor{Set: p.Set}
	for i, m := range p.Models {
		if m != nil {
			q.Models[i] = m.Quantize()
		}
	}
	return q
}

// Predict is the 8-bit prediction path.
func (q *QuantizedPredictor) Predict(features []float64) arch.Config {
	var ix [arch.NumParams]int
	for param := arch.Param(0); param < arch.NumParams; param++ {
		ix[param] = q.Models[param].Predict(features)
	}
	return arch.FromIndices(ix)
}

// StorageBytes returns the total weight storage of the quantised
// predictor.
func (q *QuantizedPredictor) StorageBytes() int {
	n := 0
	for _, m := range q.Models {
		if m != nil {
			n += m.StorageBytes()
		}
	}
	return n
}
