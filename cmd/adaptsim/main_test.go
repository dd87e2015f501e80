package main

import (
	"bytes"
	"context"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiment"
	"repro/internal/trace"
)

// TestAdaptsimColdWarm trains at TestScale into a fresh store and then
// again from it: both runs print the same bytes, one line per interval.
func TestAdaptsimColdWarm(t *testing.T) {
	defer func(f func() experiment.Scale) { trainingScale = f }(trainingScale)
	trainingScale = experiment.TestScale
	args := []string{"-cache-dir", filepath.Join(t.TempDir(), "store"),
		"-program", "gzip", "-counter-set", "basic", "-intervals", "4", "-interval-insts", "3000"}
	var outs [2]string
	for i, name := range []string{"cold", "warm"} {
		var stdout, stderr bytes.Buffer
		if err := run(context.Background(), args, &stdout, &stderr); err != nil {
			t.Fatalf("%s run: %v\n%s", name, err, stderr.String())
		}
		outs[i] = stdout.String()
	}
	if outs[0] != outs[1] {
		t.Errorf("warm stdout differs from cold:\n--- cold\n%s\n--- warm\n%s", outs[0], outs[1])
	}
	if n := strings.Count(outs[0], "\ninterval "); n != 3 || !strings.HasPrefix(outs[0], "interval   0 ") {
		t.Errorf("want 4 interval lines, got:\n%s", outs[0])
	}
	if !strings.Contains(outs[0], "adaptive / static efficiency ratio:") {
		t.Errorf("no comparison against the best static configuration:\n%s", outs[0])
	}
}

// TestPhaseWalk checks that a run of n intervals spends n/10 intervals in
// each phase, and one interval in each of the first n phases when n < 10.
func TestPhaseWalk(t *testing.T) {
	const ivInsts = 500
	for _, tc := range []struct{ intervals, perPhase int }{{4, 1}, {20, 2}} {
		w := newPhaseWalker("gzip", tc.intervals, ivInsts)
		var phases []int
		for range tc.intervals * ivInsts {
			w.Next()
			phases = append(phases, w.phase)
		}
		for i, ph := range phases {
			if want := min(i/(tc.perPhase*ivInsts), trace.PhasesPerProgram-1); ph != want {
				t.Fatalf("-intervals %d: instruction %d in phase %d, want %d", tc.intervals, i, ph, want)
			}
		}
		if last, want := phases[len(phases)-1], min(tc.intervals/tc.perPhase, trace.PhasesPerProgram)-1; last != want {
			t.Errorf("-intervals %d ends in phase %d, want %d", tc.intervals, last, want)
		}
	}
}

// TestAdaptsimRejectsBadFlags checks that each bad flag value is refused,
// named, before anything is built: the context is cancelled, so a value
// that slipped through would fail in the build instead, without naming
// the flag.
func TestAdaptsimRejectsBadFlags(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range [][]string{
		{"-program", "nosuch"},
		{"-counter-set", "basik"},
		{"-log-level", "debgu"},
		{"-intervals", "0"},
		{"-interval-insts", "-5"},
		{"-cadence", "-1"},
		{"-overhead-scale", "-0.5"},
	} {
		var stdout, stderr bytes.Buffer
		err := run(ctx, tc, &stdout, &stderr)
		if err == nil {
			t.Fatalf("%v accepted", tc)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v printed to stdout:\n%s", tc, stdout.String())
		}
		if msg := err.Error(); !strings.Contains(msg, tc[1]) || strings.Contains(msg, "context canceled") {
			t.Errorf("%v: error %q does not name the value before the build", tc, msg)
		}
	}
}

// FuzzAdaptsimArgs runs adaptsim on arbitrary flag syntax under a
// cancelled context: whatever the arguments, it returns an error (a bad
// flag, or the cancelled training build) without panicking or printing
// to stdout. Inputs naming -cache-dir are skipped so no store is
// written.
func FuzzAdaptsimArgs(f *testing.F) {
	for _, seed := range []string{
		"", "-h", "-program gzip -intervals 4", "-intervals 0", "-interval-insts=-1",
		"-cadence -1 -overhead-scale -1", "-counter-set", "-log-level debgu", "-nosuchflag", "--program=swim extra",
	} {
		f.Add(seed)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	f.Fuzz(func(t *testing.T, in string) {
		if strings.Contains(in, "cache-dir") {
			t.Skip("would write a result store")
		}
		args := strings.Fields(in)
		var stdout, stderr bytes.Buffer
		if err := run(ctx, args, &stdout, &stderr); err == nil {
			t.Errorf("%q: no error under a cancelled context", args)
		}
		if stdout.Len() != 0 {
			t.Errorf("%q printed to stdout:\n%s", args, stdout.String())
		}
	})
}
