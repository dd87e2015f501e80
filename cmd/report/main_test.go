package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

// sectionHeaders are the report's section titles in print order, each
// matched as a line prefix.
var sectionHeaders = []string{
	"Table III: best overall static configuration",
	"Figures 4/5/6: efficiency vs best overall static",
	"Figure 4 (advanced counters",
	"Figure 6 (limit study",
	"Figure 7a:",
	"Figure 7b:",
	"Figure 8: best achievable efficiency with Width pinned",
	"Figure 8: best achievable efficiency with IQ pinned",
	"Figure 8: best achievable efficiency with ICache pinned",
	"Figure 3: LSQ efficiency sweeps",
	"Table V: reconfiguration overheads",
	"Figure 9: profiling energy overheads",
	"Model storage (basic counters)",
	"Model storage (advanced counters)",
	"Table IV: set sampling",
	"Figure 1 (gap)",
	"Figure 1 (applu)",
	"Figure 1 (apsi)",
	"Table I: design space",
	"Ablation: counter families",
	"Ablation: 8-bit quantisation",
	"Ablation: cadence policy",
	"Ablation: model comparison",
	"Ablation: predictive vs runtime search",
	"Extension: multicore adaptivity",
}

// reportRun is one in-process report run's outputs.
type reportRun struct {
	stdout   string
	manifest *obs.Manifest
	trace    string // Chrome trace_event JSON path
}

// runReport runs the report at TestScale against the store in dir, naming
// its manifest and trace after name.
func runReport(t *testing.T, dir, name string) reportRun {
	t.Helper()
	manifest := filepath.Join(dir, name+"-manifest.json")
	tracePath := filepath.Join(dir, name+"-trace.json")
	var stdout, stderr bytes.Buffer
	args := []string{"-scale", "test", "-cache-dir", filepath.Join(dir, "store"),
		"-manifest", manifest, "-trace", tracePath}
	if err := run(context.Background(), args, &stdout, &stderr); err != nil {
		t.Fatalf("%s run: %v\n%s", name, err, stderr.String())
	}
	m, err := obs.LoadManifest(manifest)
	if err != nil {
		t.Fatal(err)
	}
	return reportRun{stdout: stdout.String(), manifest: m, trace: tracePath}
}

// TestReportColdWarm runs the report cold and then warm into one store:
// both runs print the same bytes with every section once and in order,
// each manifest accounts for its whole wall clock, and the ablations'
// live runs appear in the trace as spans of their own.
func TestReportColdWarm(t *testing.T) {
	dir := t.TempDir()
	cold := runReport(t, dir, "cold")
	warm := runReport(t, dir, "warm")

	if cold.stdout != warm.stdout {
		t.Errorf("warm stdout differs from cold:\n--- cold\n%s\n--- warm\n%s", cold.stdout, warm.stdout)
	}
	if d := obs.DiffDeterministic(cold.manifest, warm.manifest); d != "" {
		t.Errorf("deterministic manifest sections differ: %s", d)
	}

	lines := strings.Split(cold.stdout, "\n")
	prev := -1
	for _, h := range sectionHeaders {
		at := -1
		for i, l := range lines {
			if !strings.HasPrefix(l, h) {
				continue
			}
			if at >= 0 {
				t.Errorf("section %q printed twice (lines %d and %d)", h, at+1, i+1)
			}
			at = i
		}
		switch {
		case at < 0:
			t.Errorf("section %q missing", h)
		case at < prev:
			t.Errorf("section %q at line %d, before the previous section (line %d)", h, at+1, prev+1)
		default:
			prev = at
		}
	}

	for _, r := range []reportRun{cold, warm} {
		total, ok := r.manifest.Timing["totalSeconds"]
		unattributed, ok2 := r.manifest.Timing["unattributedSeconds"]
		if !ok || !ok2 {
			t.Fatalf("manifest timing lacks totalSeconds or unattributedSeconds: %v", r.manifest.Timing)
		}
		if unattributed < 0 {
			t.Errorf("unattributedSeconds = %v, want >= 0", unattributed)
		}
		roots, names := traceSpans(t, r.trace)
		if math.Abs(roots+unattributed-total) > 1e-6 {
			t.Errorf("root spans %.9f s + unattributed %.9f s != total %.9f s", roots, unattributed, total)
		}
		for _, want := range []string{"core.controller galgel", "core.controller apsi", "core.hillclimb", "multicore.run"} {
			if !names[want] {
				t.Errorf("trace %s has no %q span", r.trace, want)
			}
		}
	}
}

// traceSpans reads a Chrome trace and returns the summed duration of its
// root spans (the spans not nested inside an earlier one) and the set of
// span names.
func traceSpans(t *testing.T, path string) (rootSeconds float64, names map[string]bool) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []struct {
			Name    string
			Ts, Dur float64
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatal(err)
	}
	if len(tr.TraceEvents) == 0 {
		t.Fatalf("%s holds no spans", path)
	}
	// Events are in start order, a parent before its children, and a
	// child ends before its parent does.
	sumUS, end := 0.0, math.Inf(-1)
	names = map[string]bool{}
	for _, e := range tr.TraceEvents {
		names[e.Name] = true
		if e.Ts >= end {
			sumUS += e.Dur
			end = e.Ts + e.Dur
		}
	}
	return sumUS / 1e6, names
}

// TestReportRejectsUnknownScale checks that -scale names a preset and
// -log-level a level rather than either falling back to a default. The
// context is cancelled, so a fallback fails fast instead of building the
// default scale.
func TestReportRejectsUnknownScale(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct{ flag, value, want string }{
		{"-scale", "foo", "unknown scale"},
		{"-log-level", "debgu", "unknown log level"},
	} {
		var stdout, stderr bytes.Buffer
		if err := run(ctx, []string{tc.flag, tc.value}, &stdout, &stderr); err == nil {
			t.Fatalf("%s %s accepted", tc.flag, tc.value)
		}
		if stdout.Len() != 0 {
			t.Errorf("%s %s printed a report:\n%s", tc.flag, tc.value, stdout.String())
		}
		if !strings.Contains(stderr.String(), tc.want) || !strings.Contains(stderr.String(), tc.value) {
			t.Errorf("stderr does not name the bad %s:\n%s", tc.flag, stderr.String())
		}
	}
}
