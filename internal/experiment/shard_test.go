package experiment

import (
	"bytes"
	"context"
	"os"
	"testing"

	"repro/internal/store"
)

// TestWithSearchLimitPrefix pins the property the fabric shards lean on:
// a build stopped after the first n phases simulates exactly the same
// units, in the same order, as the prefix of a full build — its store log
// is a byte-prefix of the full build's log — and skips every stage after
// the search (best-static, good sets, profiling, features).
func TestWithSearchLimitPrefix(t *testing.T) {
	sc := TestScale()
	ctx := context.Background()

	fullDir := t.TempDir()
	fullStore, err := store.Open(fullDir)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Build(ctx, sc, WithStore(fullStore))
	if err != nil {
		t.Fatal(err)
	}
	if err := fullStore.Close(); err != nil {
		t.Fatal(err)
	}

	partDir := t.TempDir()
	partStore, err := store.Open(partDir)
	if err != nil {
		t.Fatal(err)
	}
	part, err := Build(ctx, sc, WithStore(partStore), WithSearchLimit(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := partStore.Close(); err != nil {
		t.Fatal(err)
	}

	if len(part.Phases) != 3 {
		t.Fatalf("partial build holds %d phases, want 3", len(part.Phases))
	}
	if got, want := part.Phases[0], full.Phases[0]; got != want {
		t.Fatalf("partial build starts at %v, full at %v", got, want)
	}
	if len(part.Good) != 0 || len(part.ProfileRes) != 0 || len(part.FeaturesAdv) != 0 {
		t.Fatalf("partial build ran post-search stages: %d good sets, %d profiles, %d feature vectors",
			len(part.Good), len(part.ProfileRes), len(part.FeaturesAdv))
	}

	fullLog, err := os.ReadFile(store.HeadLog(fullDir))
	if err != nil {
		t.Fatal(err)
	}
	partLog, err := os.ReadFile(store.HeadLog(partDir))
	if err != nil {
		t.Fatal(err)
	}
	if len(partLog) >= len(fullLog) {
		t.Fatalf("partial log (%d bytes) is not shorter than the full log (%d bytes)", len(partLog), len(fullLog))
	}
	if !bytes.Equal(partLog, fullLog[:len(partLog)]) {
		t.Fatal("partial build's store log is not a byte-prefix of the full build's")
	}
}

// TestPhaseIDsOrder pins the canonical phase order Partition windows cut:
// programs in Scale order, phases 0..PhasesPerProgram-1 within each.
func TestPhaseIDsOrder(t *testing.T) {
	sc := TestScale()
	ids := sc.PhaseIDs()
	if len(ids) != len(sc.Programs)*sc.PhasesPerProgram {
		t.Fatalf("%d phase IDs, want %d", len(ids), len(sc.Programs)*sc.PhasesPerProgram)
	}
	k := 0
	for _, prog := range sc.Programs {
		for ph := 0; ph < sc.PhasesPerProgram; ph++ {
			if ids[k].Program != prog || ids[k].Phase != ph {
				t.Fatalf("PhaseIDs[%d] = %+v, want {%s %d}", k, ids[k], prog, ph)
			}
			k++
		}
	}
}
