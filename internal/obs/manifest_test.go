package obs

import (
	"os"
	"path/filepath"
	"testing"
)

func sampleManifest() *Manifest {
	m := NewManifest("report")
	m.SetDet("scale", "test")
	m.SetDet("seed", 1)
	m.SetDet("simVersion", 1)
	m.SetDet("datasetDigest", "abc123")
	m.SetDet("spanCounts", map[string]int{"search": 9, "profile": 9})
	m.SetTiming("totalSeconds", 12.5)
	m.SetTiming("stage.search.totalSeconds", 9.25)
	m.SetTiming("storeHits", 120)
	return m
}

// TestManifestRoundTrip asserts WriteFile/LoadManifest preserve both
// sections, the bytes are deterministic, and a round-tripped manifest
// diffs clean against the original despite the JSON type erasure
// (int -> float64).
func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.json")
	m := sampleManifest()
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if d := DiffDeterministic(m, loaded); d != "" {
		t.Errorf("round-trip diff at %q", d)
	}
	if loaded.Timing["totalSeconds"] != 12.5 {
		t.Errorf("timing lost: %v", loaded.Timing)
	}
	// Byte determinism: writing the same content twice is identical.
	path2 := filepath.Join(dir, "m2.json")
	if err := sampleManifest().WriteFile(path2); err != nil {
		t.Fatal(err)
	}
	b1, b2 := mustRead(t, path), mustRead(t, path2)
	if b1 != b2 {
		t.Errorf("manifest bytes differ between identical writes:\n%s\n---\n%s", b1, b2)
	}
}

// TestDiffDeterministicNamesFirstField asserts the diff reports the first
// differing dotted path in sorted key order, and ignores timing.
func TestDiffDeterministicNamesFirstField(t *testing.T) {
	a, b := sampleManifest(), sampleManifest()
	if d := DiffDeterministic(a, b); d != "" {
		t.Fatalf("identical manifests diff at %q", d)
	}
	b.SetTiming("totalSeconds", 99)
	if d := DiffDeterministic(a, b); d != "" {
		t.Errorf("timing change leaked into deterministic diff: %q", d)
	}
	b.SetDet("seed", 2)
	if d := DiffDeterministic(a, b); d != "deterministic.seed" {
		t.Errorf("diff = %q, want deterministic.seed", d)
	}
	b = sampleManifest()
	b.SetDet("spanCounts", map[string]int{"search": 9, "profile": 8})
	if d := DiffDeterministic(a, b); d != "deterministic.spanCounts.profile" {
		t.Errorf("nested diff = %q, want deterministic.spanCounts.profile", d)
	}
	b = sampleManifest()
	delete(b.Deterministic, "datasetDigest")
	if d := DiffDeterministic(a, b); d != "deterministic.datasetDigest" {
		t.Errorf("missing-key diff = %q, want deterministic.datasetDigest", d)
	}
	c := sampleManifest()
	c.Tool = "adaptd"
	if d := DiffDeterministic(a, c); d != "tool" {
		t.Errorf("tool diff = %q, want tool", d)
	}
}

// TestTimingGeomeanSpeedup asserts only "...Seconds" keys join the gate
// and the geomean is old/new.
func TestTimingGeomeanSpeedup(t *testing.T) {
	old, new := NewManifest("report"), NewManifest("report")
	old.SetTiming("totalSeconds", 10)
	new.SetTiming("totalSeconds", 20) // 2x slower
	old.SetTiming("stage.search.totalSeconds", 4)
	new.SetTiming("stage.search.totalSeconds", 2) // 2x faster
	old.SetTiming("storeHits", 100)
	new.SetTiming("storeHits", 1) // a count: must not join the gate
	deltas := TimingDeltas(old, new)
	if len(deltas) != 3 {
		t.Fatalf("deltas = %d, want 3", len(deltas))
	}
	if g := TimingGeomeanSpeedup(deltas); g < 0.999 || g > 1.001 {
		t.Errorf("geomean = %g, want ~1.0 (0.5x and 2x cancel)", g)
	}
	if g := TimingGeomeanSpeedup(nil); g != 0 {
		t.Errorf("empty geomean = %g, want 0", g)
	}
}

func mustRead(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// FuzzLoadManifest feeds arbitrary bytes to LoadManifest: it must never
// panic, and anything it accepts must survive a write/load round trip
// with an identical deterministic section and timing map.
func FuzzLoadManifest(f *testing.F) {
	seed := filepath.Join(f.TempDir(), "seed.json")
	if err := sampleManifest().WriteFile(seed); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(seed)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"tool":"adaptd","deterministic":null,"timing":null}`))
	f.Add([]byte(`{"deterministic":{"a":[1,{"b":null}]},"timing":{"x":1e308}}`))
	f.Add([]byte(`{"timing":{"x":"NaN"}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		in := filepath.Join(dir, "in.json")
		if err := os.WriteFile(in, data, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := LoadManifest(in)
		if err != nil {
			return
		}
		out := filepath.Join(dir, "out.json")
		if err := m.WriteFile(out); err != nil {
			t.Fatalf("accepted manifest does not write back: %v", err)
		}
		again, err := LoadManifest(out)
		if err != nil {
			t.Fatalf("written manifest does not load: %v", err)
		}
		if d := DiffDeterministic(m, again); d != "" {
			t.Fatalf("round trip changed deterministic field %q", d)
		}
		if len(again.Timing) != len(m.Timing) {
			t.Fatalf("round trip changed timing keys: %v -> %v", m.Timing, again.Timing)
		}
		for k, v := range m.Timing {
			if again.Timing[k] != v {
				t.Fatalf("round trip changed timing %q: %v -> %v", k, v, again.Timing[k])
			}
		}
		TimingGeomeanSpeedup(TimingDeltas(m, again))
	})
}
