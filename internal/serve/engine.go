package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/softmax"
)

// Engine is one immutable, swappable serving model: a validated predictor
// plus, optionally, its 8-bit quantised form (§VIII) used for the actual
// decisions. Engines are never mutated after construction, so the server
// can hot-swap them through an atomic pointer with no locking on the
// predict path.
type Engine struct {
	pred      *core.Predictor
	quant     *core.QuantizedPredictor
	quantized bool
	dim       int
	version   string
}

// NewEngine validates the predictor and wraps it for serving. When
// quantized is true, decisions and probabilities are computed from the
// 8-bit weights — the hardware-table deployment mode.
func NewEngine(pred *core.Predictor, quantized bool) (*Engine, error) {
	if pred == nil {
		return nil, fmt.Errorf("serve: nil predictor")
	}
	if err := pred.Validate(); err != nil {
		return nil, fmt.Errorf("serve: predictor rejected: %w", err)
	}
	e := &Engine{pred: pred, quantized: quantized, dim: counters.Dim(pred.Set)}
	if quantized {
		e.quant = pred.Quantize()
	}
	var buf bytes.Buffer
	if err := pred.Save(&buf); err != nil {
		return nil, fmt.Errorf("serve: fingerprinting predictor: %w", err)
	}
	sum := sha256.Sum256(buf.Bytes())
	e.version = hex.EncodeToString(sum[:6])
	if quantized {
		e.version += "-q8"
	}
	return e, nil
}

// Version returns the model fingerprint: a short SHA-256 of the
// predictor's serialised form (core.Predictor.Save is deterministic, so
// the same weights always fingerprint identically), suffixed "-q8" when
// decisions come from the 8-bit weights. /v1/status and /v1/designspace
// report it so operators can tell which model answered.
func (e *Engine) Version() string { return e.version }

// Set returns the counter set the engine's features must come from.
func (e *Engine) Set() counters.Set { return e.pred.Set }

// Dim returns the expected feature-vector length.
func (e *Engine) Dim() int { return e.dim }

// Quantized reports whether decisions use the 8-bit weights.
func (e *Engine) Quantized() bool { return e.quantized }

// WeightCount returns the model's total weight count.
func (e *Engine) WeightCount() int { return e.pred.WeightCount() }

// Predict returns the predicted configuration and, for every parameter,
// the soft-max distribution over its domain values: each parameter's
// scores become its probability row, normalised in place. Softmax
// preserves the argmax, so the decision is read from the normalised row.
// features must have length Dim.
func (e *Engine) Predict(features []float64) (arch.Config, [arch.NumParams][]float64) {
	if len(features) != e.dim {
		panic(fmt.Sprintf("serve: feature vector has dimension %d, engine expects %d", len(features), e.dim))
	}
	var probs [arch.NumParams][]float64
	var indices [arch.NumParams]int
	for param := arch.Param(0); param < arch.NumParams; param++ {
		var row []float64
		if e.quantized {
			row = e.quant.Models[param].Scores(features, nil)
		} else {
			row = e.pred.Models[param].Scores(features, nil)
		}
		softmax.SoftmaxInPlace(row)
		best, bi := -1.0, 0
		for j, p := range row {
			if p > best {
				best, bi = p, j
			}
		}
		probs[param] = row
		indices[param] = bi
	}
	return arch.FromIndices(indices), probs
}
