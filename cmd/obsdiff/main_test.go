package main

import (
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
