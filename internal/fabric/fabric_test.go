package fabric

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiment"
	"repro/internal/store"
)

func TestPartitionCoversAllPhases(t *testing.T) {
	sc := experiment.TestScale()
	total := len(sc.PhaseIDs())
	for _, n := range []int{1, 2, 3, 8, 100} {
		specs := Partition(sc, n)
		want := n
		if want > total {
			want = total // clamped: never more shards than phases
		}
		if len(specs) != want {
			t.Fatalf("Partition(n=%d) produced %d specs, want %d", n, len(specs), want)
		}
		lo := 0
		for k, s := range specs {
			if s.Index != k || s.Shards != len(specs) {
				t.Fatalf("n=%d shard %d: Index/Shards = %d/%d", n, k, s.Index, s.Shards)
			}
			if s.Lo != lo {
				t.Fatalf("n=%d shard %d: window starts at %d, want contiguous %d", n, k, s.Lo, lo)
			}
			if s.Phases() < total/len(specs) || s.Phases() > total/len(specs)+1 {
				t.Fatalf("n=%d shard %d: %d phases, want balanced around %d", n, k, s.Phases(), total/len(specs))
			}
			if err := s.Validate(sc); err != nil {
				t.Fatalf("n=%d shard %d: Validate: %v", n, k, err)
			}
			lo = s.Hi
		}
		if lo != total {
			t.Fatalf("n=%d: windows end at %d, want %d", n, lo, total)
		}
	}
}

func TestSpecStringRoundTrip(t *testing.T) {
	sc := experiment.TestScale()
	for _, spec := range Partition(sc, 3) {
		got, err := Parse(spec.String())
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec.String(), err)
		}
		if got != spec {
			t.Fatalf("round trip: %+v != %+v", got, spec)
		}
	}
	for _, bad := range []string{
		"",
		"v1:0/2:0-4",                        // missing digest
		"v2:0/2:0-4:0123456789abcdef",       // unknown version
		"v1:2/2:0-4:0123456789abcdef",       // index out of range
		"v1:0/2:4-4:0123456789abcdef",       // empty window
		"v1:0/2:0-4:short",                  // bad digest length
		"v1:x/2:0-4:0123456789abcdef",       // non-numeric
		"v1:0/2:0-4:0123456789abcdef:extra", // trailing part
	} {
		if _, err := Parse(bad); err == nil {
			t.Fatalf("Parse(%q) succeeded, want error", bad)
		}
	}
}

// FuzzParseSpec feeds arbitrary text to Parse: it must never panic, and
// every spec it accepts must round-trip through String.
func FuzzParseSpec(f *testing.F) {
	for _, spec := range Partition(experiment.TestScale(), 3) {
		f.Add(spec.String())
	}
	for _, seed := range []string{
		"",
		"v1:0/2:0-4",
		"v2:0/2:0-4:0123456789abcdef",
		"v1:2/2:0-4:0123456789abcdef",
		"v1:0/2:4-4:0123456789abcdef",
		"v1:0/2:0-4:short",
		"v1:x/2:0-4:0123456789abcdef",
		"v1:0/2:0-4:0123456789abcdef:extra",
		"v1:+0/02:0-4:0123456789abcdef",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		spec, err := Parse(text)
		if err != nil {
			return
		}
		again, err := Parse(spec.String())
		if err != nil {
			t.Fatalf("Parse(%q) accepted %+v, but its String %q does not parse: %v", text, spec, spec.String(), err)
		}
		if again != spec {
			t.Fatalf("round trip of %q: %+v != %+v", text, again, spec)
		}
	})
}

func TestValidateRejectsWrongScale(t *testing.T) {
	sc := experiment.TestScale()
	spec := Partition(sc, 2)[0]
	other := sc
	other.Seed = sc.Seed + 1
	err := spec.Validate(other)
	if err == nil || !strings.Contains(err.Error(), "different configuration") {
		t.Fatalf("Validate against a different seed: err = %v, want configuration mismatch", err)
	}
	// A window beyond the phase list is rejected even with the right digest.
	big := spec
	big.Hi = len(sc.PhaseIDs()) + 1
	if err := big.Validate(sc); err == nil {
		t.Fatal("Validate accepted a window past the phase list")
	}
}

// TestDriveSeedsLaterShards checks the prefix-replay optimisation is
// actually wired: shard k's directory holds adopted segments from its
// predecessors.
func TestDriveSeedsLaterShards(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full fabric build")
	}
	sc := experiment.TestScale()
	dstDir := filepath.Join(t.TempDir(), "dst")
	if _, err := Drive(context.Background(), sc, 2, dstDir); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dstDir, "fabric", "shard-001", "segment-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Fatalf("shard-001 holds %d adopted segments, want 1 (shard-000's head)", len(segs))
	}
	if _, err := os.Stat(store.HeadLog(dstDir)); err != nil {
		t.Fatalf("merged destination head log: %v", err)
	}
}
