package experiment

import (
	"context"
	"testing"

	"repro/internal/store"
)

// TestStoreKeepsPredictionsOutOfSample asserts the contract CLAUDE.md
// pins: results fetched through Dataset.Result — the model-prediction
// path — stay out of the sample space even when they come from the
// store, and a later SampleResult for the same config still promotes it.
func TestStoreKeepsPredictionsOutOfSample(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := Build(context.Background(), obsScale(), WithStore(st))
	if err != nil {
		t.Fatal(err)
	}
	id := ds.Phases[0]
	probe := ds.Best[id].With(0, 2) // width=2 variant; may or may not be sampled already
	inSampleBefore := len(ds.SampleSpace(id))
	if _, err := ds.Result(id, probe); err != nil {
		t.Fatal(err)
	}
	afterResult := len(ds.SampleSpace(id))
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Rebuild warm: the probe's record is now in the store. Result must
	// still not add it to the sample space; SampleResult must.
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	ds2, err := Build(context.Background(), obsScale(), WithStore(st2))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(ds2.SampleSpace(id)); got != inSampleBefore {
		t.Fatalf("warm build in-sample size = %d, want %d", got, inSampleBefore)
	}
	if _, err := ds2.Result(id, probe); err != nil {
		t.Fatal(err)
	}
	if got := len(ds2.SampleSpace(id)); got != afterResult {
		t.Errorf("store-served Result changed the sample space: %d, want %d", got, afterResult)
	}
	if _, err := ds2.SampleResult(id, probe); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, cfg := range ds2.SampleSpace(id) {
		if cfg == probe {
			found = true
		}
	}
	if !found {
		t.Error("SampleResult did not promote a store-served config into the sample space")
	}
}
