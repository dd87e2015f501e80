package core

import (
	"bytes"
	"encoding/gob"
	"math"
	"testing"

	"repro/internal/arch"
	"repro/internal/counters"
)

// FuzzLoadPredictor feeds arbitrary bytes to LoadPredictor. It must never
// panic, every predictor it accepts must pass Validate, and an accepted
// predictor must survive a Save/Load round trip unchanged.
func FuzzLoadPredictor(f *testing.F) {
	for _, set := range []counters.Set{counters.Basic, counters.Advanced} {
		var buf bytes.Buffer
		if err := trainToyPredictor(f, set).Save(&buf); err != nil {
			f.Fatal(err)
		}
		saved := buf.Bytes()
		f.Add(saved)
		f.Add(saved[len(wireMagic)+1:]) // headerless legacy bare gob
		f.Add(saved[:len(saved)/2])     // torn
	}
	// A well-framed payload whose class counts miss the design space.
	var wire predictorWire
	d := counters.Dim(counters.Basic)
	for i := 0; i < int(arch.NumParams); i++ {
		k := arch.DomainSize(arch.Param(i)) + 1
		wire.Dims = append(wire.Dims, d)
		wire.Ks = append(wire.Ks, k)
		wire.Floats = append(wire.Floats, make([]float64, d*k))
	}
	var foreign bytes.Buffer
	foreign.Write(append(wireMagic[:], wireVersion))
	if err := gob.NewEncoder(&foreign).Encode(wire); err != nil {
		f.Fatal(err)
	}
	f.Add(foreign.Bytes())
	f.Add([]byte{})
	f.Add(append(wireMagic[:], wireVersion+9))

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := LoadPredictor(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("LoadPredictor accepted a predictor that fails Validate: %v", err)
		}
		var out bytes.Buffer
		if err := p.Save(&out); err != nil {
			t.Fatalf("accepted predictor does not save: %v", err)
		}
		q, err := LoadPredictor(&out)
		if err != nil {
			t.Fatalf("saved predictor does not reload: %v", err)
		}
		if q.Set != p.Set {
			t.Fatalf("round trip changed the set: %v -> %v", p.Set, q.Set)
		}
		for i := range p.Models {
			a, b := p.Models[i], q.Models[i]
			if a.D != b.D || a.K != b.K || len(a.W) != len(b.W) {
				t.Fatalf("round trip changed model %d's shape", i)
			}
			for j := range a.W {
				if math.Float64bits(a.W[j]) != math.Float64bits(b.W[j]) {
					t.Fatalf("round trip changed model %d weight %d: %v -> %v", i, j, a.W[j], b.W[j])
				}
			}
		}
	})
}
