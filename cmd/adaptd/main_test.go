package main

import (
	"testing"

	"repro/internal/serve"
)

// The flag-syntax tables double as the fuzz targets' seed corpora.
var (
	rateValid = []struct {
		in    string
		class serve.Class
		pol   serve.ClassPolicy
	}{
		{"background=20", serve.ClassBackground, serve.ClassPolicy{Rate: 20}},
		{"background=20:5", serve.ClassBackground, serve.ClassPolicy{Rate: 20, Burst: 5}},
		{"batch=0.5:1", serve.ClassBatch, serve.ClassPolicy{Rate: 0.5, Burst: 1}},
		{"interactive=1e3", serve.ClassInteractive, serve.ClassPolicy{Rate: 1000}},
	}
	rateInvalid = []string{
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
	}
)

func TestParseRate(t *testing.T) {
	for _, tc := range rateValid {
		class, pol, err := parseRate(tc.in)
		if err != nil {
			t.Errorf("parseRate(%q): %v", tc.in, err)
			continue
		}
		if class != tc.class || pol != tc.pol {
			t.Errorf("parseRate(%q) = %v %+v, want %v %+v", tc.in, class, pol, tc.class, tc.pol)
		}
	}
	for _, in := range rateInvalid {
		if class, pol, err := parseRate(in); err == nil {
			t.Errorf("parseRate(%q) accepted: %v %+v", in, class, pol)
		}
	}
}

// FuzzParseRate holds -admission-rate parsing to its contract on any
// input: no panic, and an accepted policy has a positive finite rate and
// a finite, non-negative burst.
func FuzzParseRate(f *testing.F) {
	for _, tc := range rateValid {
		f.Add(tc.in)
	}
	for _, in := range rateInvalid {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in string) {
		class, pol, err := parseRate(in)
		if err != nil {
			return
		}
		if class < 0 || class >= serve.NumClasses {
			t.Fatalf("parseRate(%q) class %d out of range", in, class)
		}
		if !positiveFinite(pol.Rate) || !finite(pol.Burst) || pol.Burst < 0 {
			t.Fatalf("parseRate(%q) accepted %+v", in, pol)
		}
	})
}
