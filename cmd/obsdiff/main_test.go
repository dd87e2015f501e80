package main

import (
	"bytes"
	"context"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

func TestRenderField(t *testing.T) {
	m := obs.NewManifest("report")
	m.SetDet("scale.seed", 7)
	m.SetDet("flags.scale", "test")
	m.SetDet("spans", map[string]any{"count": 12, "tree.digest": "ab12"})
	cases := []struct {
		name, path, want string
	}{
		{"nested key", "deterministic.spans.count", "12"},
		{"flat dotted key", "deterministic.flags.scale", "test"},
		{"flat dotted key inside a nested map", "deterministic.spans.tree.digest", "ab12"},
		{"missing key", "deterministic.flags.workers", "<absent>"},
		{"path below a leaf", "deterministic.scale.seed.low", "<absent>"},
		{"tool", "tool", "report"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := renderField(m, tc.path); got != tc.want {
				t.Errorf("renderField(%q) = %q, want %q", tc.path, got, tc.want)
			}
		})
	}
}

// TestObsdiff compares manifests in process: equal deterministic sections
// pass, a differing field fails naming it, and -threshold fails a
// wall-clock regression past it.
func TestObsdiff(t *testing.T) {
	dir := t.TempDir()
	write := func(name, scale string, seconds float64) string {
		m := obs.NewManifest("report")
		m.SetDet("flags.scale", scale)
		m.SetTiming("totalSeconds", seconds)
		path := filepath.Join(dir, name)
		if err := m.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, slower, other := write("base.json", "test", 1), write("slower.json", "test", 2), write("other.json", "mid", 1)
	for _, tc := range []struct {
		args    []string
		fails   bool
		printed string
	}{
		{[]string{base, slower}, false, "deterministic sections match (1 fields)"},
		{[]string{"-threshold", "10", base, slower}, true, "REGRESSION: geomean speedup 0.500x"},
		{[]string{"-threshold", "10", slower, base}, false, "within threshold"},
		{[]string{base, other}, true, "DETERMINISTIC MISMATCH at deterministic.flags.scale\n  old: test\n  new: mid\n"},
	} {
		var stdout, stderr bytes.Buffer
		err := run(context.Background(), tc.args, &stdout, &stderr)
		if (err != nil) != tc.fails || !strings.Contains(stdout.String(), tc.printed) {
			t.Errorf("%q: err %v, stdout:\n%s", tc.args, err, stdout.String())
		}
	}
}

// TestObsdiffRejectsBadCommandLines checks that a wrong manifest count or
// a bad flag value fails with nothing on stdout.
func TestObsdiffRejectsBadCommandLines(t *testing.T) {
	for _, args := range [][]string{nil, {"one.json"}, {"a", "b", "c"}, {"-threshold", "ten", "a", "b"}, {"-x", "a", "b"}} {
		var stdout, stderr bytes.Buffer
		if err := run(context.Background(), args, &stdout, &stderr); err == nil || stdout.Len() != 0 || !strings.Contains(stderr.String(), "usage: obsdiff") {
			t.Errorf("%q: err %v, stdout %q, stderr %q", args, err, stdout.String(), stderr.String())
		}
	}
}
