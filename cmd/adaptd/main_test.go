package main

import (
	"testing"

	"repro/internal/serve"
)

func TestParseRate(t *testing.T) {
	valid := []struct {
		in    string
		class serve.Class
		pol   serve.ClassPolicy
	}{
		{"background=20", serve.ClassBackground, serve.ClassPolicy{Rate: 20}},
		{"background=20:5", serve.ClassBackground, serve.ClassPolicy{Rate: 20, Burst: 5}},
		{"batch=0.5:1", serve.ClassBatch, serve.ClassPolicy{Rate: 0.5, Burst: 1}},
		{"interactive=1e3", serve.ClassInteractive, serve.ClassPolicy{Rate: 1000}},
	}
	for _, tc := range valid {
		class, pol, err := parseRate(tc.in)
		if err != nil {
			t.Errorf("parseRate(%q): %v", tc.in, err)
			continue
		}
		if class != tc.class || pol != tc.pol {
			t.Errorf("parseRate(%q) = %v %+v, want %v %+v", tc.in, class, pol, tc.class, tc.pol)
		}
	}
	for _, in := range []string{
		"",
		"background",
		"=20",
		"bulk=20",
		"background=",
		"background=0",
		"background=-1",
		"background=NaN",
		"background=nan",
		"background=Inf",
		"background=+Inf",
		"background=-Inf",
		"background=1e400",
		"background=20:",
		"background=20:0",
		"background=20:-5",
		"background=20:NaN",
		"background=20:Inf",
	} {
		if class, pol, err := parseRate(in); err == nil {
			t.Errorf("parseRate(%q) accepted: %v %+v", in, class, pol)
		}
	}
}

func TestParseMix(t *testing.T) {
	valid := []struct {
		in   string
		want serve.ClassMix
	}{
		{"", serve.DefaultClassMix()},
		{"interactive=1", serve.ClassMix{serve.ClassInteractive: 1}},
		{"interactive=0.7, batch=0.2,background=0.1", serve.DefaultClassMix()},
		{"batch=0,background=3", serve.ClassMix{serve.ClassBackground: 3}},
	}
	for _, tc := range valid {
		got, err := parseMix(tc.in)
		if err != nil {
			t.Errorf("parseMix(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("parseMix(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
	for _, in := range []string{
		"interactive",
		"=1",
		"bulk=1",
		"interactive=x",
		"interactive=-0.1",
		"interactive=NaN",
		"batch=0.2,background=NaN",
		"interactive=Inf",
		"interactive=-Inf",
	} {
		if mix, err := parseMix(in); err == nil {
			t.Errorf("parseMix(%q) accepted: %v", in, mix)
		}
	}
}
