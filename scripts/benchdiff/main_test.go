package main

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeBench(t *testing.T, lines string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "bench.txt")
	if err := os.WriteFile(path, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestOneSidedBenchmarks: a benchmark present on only one side must
// surface as a one-sided row — in the document and the table — instead
// of being dropped silently, and must not perturb the geomean.
func TestOneSidedBenchmarks(t *testing.T) {
	oldPath := writeBench(t, `
BenchmarkShared-4      100  200.0 ns/op  64 B/op
BenchmarkRemoved-4     100  999.0 ns/op
`)
	newPath := writeBench(t, `
BenchmarkShared-4      100  100.0 ns/op
BenchmarkAdded-4       100  50.0 ns/op
`)
	oldB, _, err := parseFile(oldPath)
	if err != nil {
		t.Fatal(err)
	}
	newB, order, err := parseFile(newPath)
	if err != nil {
		t.Fatal(err)
	}
	doc := buildDoc(oldB, newB, order)

	names := map[string]jsonBench{}
	for _, jb := range doc.Benchmarks {
		names[jb.Name] = jb
	}
	if len(doc.Benchmarks) != 3 {
		t.Fatalf("got %d benchmarks, want 3 (shared, added, removed)", len(doc.Benchmarks))
	}
	if jb, ok := names["BenchmarkAdded"]; !ok || jb.Old != nil || jb.Speedup != 0 {
		t.Errorf("new-only benchmark mishandled: %+v", jb)
	}
	if jb, ok := names["BenchmarkRemoved"]; !ok || jb.New != nil || jb.Speedup != 0 {
		t.Errorf("old-only benchmark mishandled: %+v", jb)
	}
	if got := names["BenchmarkShared"].Speedup; got != 2.0 {
		t.Errorf("shared speedup = %v, want 2.0", got)
	}
	// Geomean covers only the shared benchmark.
	if math.Abs(doc.GeomeanSpeedup-2.0) > 1e-9 {
		t.Errorf("geomean = %v, want 2.0", doc.GeomeanSpeedup)
	}

	rows := diffRows(doc)
	var added, removed, sharedBop string
	for _, r := range rows {
		key := r[0] + "/" + r[1]
		switch key {
		case "BenchmarkAdded/ns/op":
			added = strings.Join(r, " ")
		case "BenchmarkRemoved/ns/op":
			removed = strings.Join(r, " ")
		case "BenchmarkShared/B/op":
			sharedBop = strings.Join(r, " ")
		}
	}
	if !strings.Contains(added, "new only") || !strings.Contains(added, "-") {
		t.Errorf("new-only row not rendered one-sided: %q", added)
	}
	if !strings.Contains(removed, "old only") || !strings.Contains(removed, "999") {
		t.Errorf("old-only row not rendered one-sided: %q", removed)
	}
	// A metric present on one side of a shared benchmark is one-sided too.
	if !strings.Contains(sharedBop, "old only") {
		t.Errorf("one-sided metric of a shared benchmark dropped: %q", sharedBop)
	}
}

// TestMultiRunMedians: a file holding several runs of a benchmark is
// compared on every metric's median over all its lines, not on its last
// line, and each side's run count is reported.
func TestMultiRunMedians(t *testing.T) {
	oldPath := writeBench(t, `
goos: linux
BenchmarkTrain-2      10  300.0 ns/op  64 B/op
BenchmarkTrain-2      10  100.0 ns/op  64 B/op
PASS
goos: linux
BenchmarkTrain-2      10  200.0 ns/op  32 B/op
`)
	newPath := writeBench(t, `
BenchmarkTrain-2      10  150.0 ns/op  16 B/op
BenchmarkTrain-2      10  50.0 ns/op   16 B/op
`)
	oldB, _, err := parseFile(oldPath)
	if err != nil {
		t.Fatal(err)
	}
	newB, order, err := parseFile(newPath)
	if err != nil {
		t.Fatal(err)
	}
	doc := buildDoc(oldB, newB, order)
	if len(doc.Benchmarks) != 1 {
		t.Fatalf("got %d benchmarks, want 1", len(doc.Benchmarks))
	}
	jb := doc.Benchmarks[0]
	if jb.OldN != 3 || jb.NewN != 2 {
		t.Errorf("runs old=%d new=%d, want 3 and 2", jb.OldN, jb.NewN)
	}
	if jb.Old["ns/op"] != 200 || jb.Old["B/op"] != 64 || jb.New["ns/op"] != 100 || jb.New["B/op"] != 16 {
		t.Errorf("medians old=%v new=%v, want ns/op 200 -> 100 and B/op 64 -> 16", jb.Old, jb.New)
	}
	if jb.Speedup != 2 {
		t.Errorf("speedup = %v, want 2 (median over median)", jb.Speedup)
	}
	for _, r := range diffRows(doc) {
		if r[1] == "ns/op" && strings.Join(r, " ") != "BenchmarkTrain ns/op 200 3 100 2 -50.0% (2.00x)" {
			t.Errorf("ns/op row = %q", strings.Join(r, " "))
		}
	}
}
