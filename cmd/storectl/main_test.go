package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/cpu"
	"repro/internal/store"
	"repro/internal/trace"
)

// newStore writes a store in dir holding one measured result for each of
// program's given phases.
func newStore(t *testing.T, dir, program string, phases ...int) {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ph := range phases {
		g, err := trace.NewGenerator(program, ph)
		if err != nil {
			t.Fatal(err)
		}
		insts := g.Interval(1000)
		sim, err := cpu.New(arch.Baseline())
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(cpu.NewSliceSource(insts), len(insts), cpu.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Put(store.Fingerprint(program, ph, arch.Baseline(), 1000, 0), res); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// storectl runs the command in process and returns its output and error.
func storectl(args ...string) (stdout, stderr string, err error) {
	var out, errOut bytes.Buffer
	err = run(context.Background(), args, &out, &errOut)
	return out.String(), errOut.String(), err
}

// TestStorectl merges two stores, audits and counts the result, and then
// finds a flipped byte in it.
func TestStorectl(t *testing.T) {
	tmp := t.TempDir()
	dst, src := filepath.Join(tmp, "dst"), filepath.Join(tmp, "src")
	newStore(t, dst, "gzip", 0)
	newStore(t, src, "gzip", 0, 1)

	if out, errOut, err := storectl("merge", dst, src); err != nil || !strings.Contains(out, "records=2 added=1 dedup=1") {
		t.Fatalf("merge: %v\n%s%s", err, out, errOut)
	}
	if out, errOut, err := storectl("verify", dst); err != nil || !strings.Contains(out, ": ok records=2 profiles=0") {
		t.Fatalf("verify: %v\n%s%s", err, out, errOut)
	}
	if out, errOut, err := storectl("stats", dst, src); err != nil || strings.Count(out, "records=2 profiles=0") != 2 {
		t.Fatalf("stats: %v\n%s%s", err, out, errOut)
	}

	log := store.HeadLog(dst)
	data, err := os.ReadFile(log)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(log, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if out, errOut, err := storectl("verify", dst); err == nil || !strings.Contains(out, "FAULT:") || !strings.Contains(errOut, "fault") {
		t.Errorf("verify of a flipped byte: %v\n%s%s", err, out, errOut)
	}
}

// TestStorectlRejectsBadCommandLines checks that a command line naming no
// known subcommand, or too few directories, prints the usage and fails.
func TestStorectlRejectsBadCommandLines(t *testing.T) {
	for _, args := range [][]string{nil, {"frob", "dir"}, {"merge", "only-dst"}, {"verify"}, {"stats"}} {
		out, errOut, err := storectl(args...)
		if !errors.Is(err, errUsage) || out != "" || !strings.HasPrefix(errOut, "usage:") {
			t.Errorf("%q: err %v, stdout %q, stderr %q", args, err, out, errOut)
		}
	}
	if _, errOut, err := storectl("-x", "stats"); err == nil || !strings.Contains(errOut, "-x") {
		t.Errorf("-x: err %v, stderr %q", err, errOut)
	}
}
