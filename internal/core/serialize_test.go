package core

import (
	"bytes"
	"encoding/gob"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/counters"
	"repro/internal/softmax"
)

func TestSaveWritesVersionedHeader(t *testing.T) {
	pred := trainToyPredictor(t, counters.Basic)
	var buf bytes.Buffer
	if err := pred.Save(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if len(b) < 5 || !bytes.Equal(b[:4], wireMagic[:]) {
		t.Fatalf("saved predictor does not start with magic %q: % x", wireMagic, b[:min(8, len(b))])
	}
	if b[4] != wireVersion {
		t.Errorf("format version byte = %d, want %d", b[4], wireVersion)
	}
}

func TestLoadPredictorRejectsLegacyBareGob(t *testing.T) {
	// Files written before the header existed were bare gob. Every model
	// adaptd writes carries the header, so a headerless file is rejected
	// even when its gob payload is a well-formed predictor.
	pred := trainToyPredictor(t, counters.Basic)
	var buf bytes.Buffer
	if err := pred.Save(&buf); err != nil {
		t.Fatal(err)
	}
	bare := buf.Bytes()[len(wireMagic)+1:]
	_, err := LoadPredictor(bytes.NewReader(bare))
	if err == nil {
		t.Fatal("legacy bare-gob predictor accepted")
	}
	if !strings.Contains(err.Error(), "missing") {
		t.Errorf("bare-gob rejection %q does not name the missing header", err)
	}
}

func TestLoadPredictorRejectsFutureVersion(t *testing.T) {
	pred := trainToyPredictor(t, counters.Basic)
	var buf bytes.Buffer
	if err := pred.Save(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[4] = wireVersion + 9
	_, err := LoadPredictor(bytes.NewReader(b))
	if err == nil {
		t.Fatal("future format version accepted")
	}
}

func TestLoadPredictorRejectsShortFile(t *testing.T) {
	for _, b := range [][]byte{nil, {'A'}, {'A', 'D', 'P'}, append(wireMagic[:], wireVersion)} {
		if _, err := LoadPredictor(bytes.NewReader(b)); err == nil {
			t.Errorf("short file % x accepted", b)
		}
	}
}

func TestValidateCatchesShapeMismatches(t *testing.T) {
	pred := trainToyPredictor(t, counters.Basic)
	if err := pred.Validate(); err != nil {
		t.Fatalf("trained predictor invalid: %v", err)
	}

	wrongSet := *pred
	wrongSet.Set = counters.Advanced // basic-dimension models under the advanced set
	if err := wrongSet.Validate(); err == nil {
		t.Error("set/dimension mismatch not caught")
	}

	var missing Predictor
	missing.Set = counters.Basic
	if err := missing.Validate(); err == nil {
		t.Error("missing models not caught")
	}
}

func TestLoadPredictorRejectsForeignShape(t *testing.T) {
	// A structurally consistent wire payload whose class counts do not
	// match the design space must be rejected at load time.
	var wire predictorWire
	d := counters.Dim(counters.Basic)
	for i := 0; i < int(arch.NumParams); i++ {
		k := arch.DomainSize(arch.Param(i)) + 1
		wire.Dims = append(wire.Dims, d)
		wire.Ks = append(wire.Ks, k)
		wire.Floats = append(wire.Floats, make([]float64, d*k))
	}
	var buf bytes.Buffer
	buf.Write(append(wireMagic[:], wireVersion))
	if err := gob.NewEncoder(&buf).Encode(wire); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPredictor(&buf); err == nil {
		t.Fatal("foreign-shape predictor accepted")
	}
}

// TestConvergenceStaysOffTheWire: a trained predictor carries each
// model's convergence record, and the saved form does not, so a loaded
// predictor has the same weights and zero stats.
func TestConvergenceStaysOffTheWire(t *testing.T) {
	pred := trainToyPredictor(t, counters.Basic)
	for param, m := range pred.Models {
		if st := m.Stats; st.Iters == 0 || st.Evals < st.Iters {
			t.Errorf("%s: implausible convergence record %+v", arch.Param(param), st)
		}
	}
	var buf bytes.Buffer
	if err := pred.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadPredictor(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for param, m := range loaded.Models {
		if m.Stats != (softmax.TrainStats{}) {
			t.Errorf("%s: loaded model carries stats %+v", arch.Param(param), m.Stats)
		}
	}
}
