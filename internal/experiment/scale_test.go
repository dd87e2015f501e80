package experiment

import "testing"

// TestPhaseIDsOrder pins the canonical phase order Build searches and
// profiles in: programs in Scale order, phases 0..PhasesPerProgram-1
// within each.
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
