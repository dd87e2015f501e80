package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"

	"repro/internal/arch"
	"repro/internal/counters"
	"repro/internal/softmax"
)

// Serialization of trained predictors, so a model trained once (an
// expensive, simulation-heavy step) can be shipped to and loaded by the
// runtime controller — the software analogue of burning the weights into
// the §VIII hardware tables.
//
// The on-disk format is a fixed magic + one version byte followed by a gob
// payload, so LoadPredictor can reject corrupt or foreign files with a
// clear error instead of a raw gob decode failure.

// wireMagic identifies a predictor file; wireVersion is the current format.
var wireMagic = [4]byte{'A', 'D', 'P', 'T'}

const wireVersion = 1

// predictorWire is the gob wire format, kept separate from the live type
// so the in-memory representation can evolve.
type predictorWire struct {
	Set    int
	Dims   []int
	Ks     []int
	Floats [][]float64
}

// Save writes the predictor to w in a self-describing binary format:
// magic, format version, then the gob-encoded weights.
func (p *Predictor) Save(w io.Writer) error {
	wire := predictorWire{Set: int(p.Set)}
	for _, m := range p.Models {
		if m == nil {
			return fmt.Errorf("core: cannot save incomplete predictor")
		}
		wire.Dims = append(wire.Dims, m.D)
		wire.Ks = append(wire.Ks, m.K)
		wire.Floats = append(wire.Floats, m.W)
	}
	if _, err := w.Write(append(wireMagic[:], wireVersion)); err != nil {
		return fmt.Errorf("core: writing predictor header: %w", err)
	}
	return gob.NewEncoder(w).Encode(wire)
}

// LoadPredictor reads a predictor previously written by Save. Files
// without the magic + version header are rejected.
func LoadPredictor(r io.Reader) (*Predictor, error) {
	var head [len(wireMagic) + 1]byte
	if _, err := io.ReadFull(r, head[:]); err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return nil, fmt.Errorf("core: reading predictor header: %w", err)
	}
	if !bytes.Equal(head[:len(wireMagic)], wireMagic[:]) {
		return nil, fmt.Errorf("core: not a predictor file (missing %q header)", wireMagic)
	}
	if v := head[len(wireMagic)]; v != wireVersion {
		return nil, fmt.Errorf("core: predictor format version %d not supported (want %d)", v, wireVersion)
	}
	var wire predictorWire
	if err := gob.NewDecoder(r).Decode(&wire); err != nil {
		return nil, fmt.Errorf("core: corrupt predictor payload: %w", err)
	}
	if len(wire.Dims) != len(p0Models) || len(wire.Ks) != len(p0Models) || len(wire.Floats) != len(p0Models) {
		return nil, fmt.Errorf("core: predictor has %d models, want %d", len(wire.Dims), len(p0Models))
	}
	p := &Predictor{Set: counters.Set(wire.Set)}
	for i := range p.Models {
		d, k := wire.Dims[i], wire.Ks[i]
		if d <= 0 || k <= 0 || len(wire.Floats[i]) != d*k {
			return nil, fmt.Errorf("core: model %d has inconsistent shape %dx%d with %d weights", i, d, k, len(wire.Floats[i]))
		}
		m, err := softmax.NewModel(d, k, 0)
		if err != nil {
			return nil, err
		}
		copy(m.W, wire.Floats[i])
		p.Models[i] = m
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// Validate checks that the predictor's shape matches the design space and
// its counter set: a known Set, one model per parameter, every model's
// input dimension equal to the set's feature dimension and its class count
// equal to the parameter's domain size. A loaded predictor that fails this
// was trained against a different feature encoding or parameter space and
// would mis-dimension every prediction.
func (p *Predictor) Validate() error {
	if p.Set != counters.Basic && p.Set != counters.Advanced {
		return fmt.Errorf("core: predictor has unknown counter set %d", int(p.Set))
	}
	d := counters.Dim(p.Set)
	for param := arch.Param(0); param < arch.NumParams; param++ {
		m := p.Models[param]
		if m == nil {
			return fmt.Errorf("core: predictor is missing the %s model", param)
		}
		if m.D != d {
			return fmt.Errorf("core: %s model expects %d features but the %s counter set has %d", param, m.D, p.Set, d)
		}
		if k := arch.DomainSize(param); m.K != k {
			return fmt.Errorf("core: %s model has %d classes but the parameter domain has %d values", param, m.K, k)
		}
	}
	return nil
}

// p0Models is a zero predictor used only for its model count.
var p0Models [len(Predictor{}.Models)]struct{}
