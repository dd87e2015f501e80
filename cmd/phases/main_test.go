package main

import (
	"bytes"
	"context"
	"strconv"
	"strings"
	"testing"
)

// TestPhases walks galgel's ten phases one short interval each: every
// interval gets a row, and the basic-block-vector distance is zero for
// the first interval only.
func TestPhases(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-program", "galgel", "-intervals", "1", "-interval-insts", "3000"}
	if err := run(context.Background(), args, &stdout, &stderr); err != nil {
		t.Fatalf("%v\n%s", err, stderr.String())
	}
	lines := strings.Split(stdout.String(), "\n")
	if !strings.HasPrefix(lines[0], "galgel: 10 intervals of 3000 instructions") || !strings.Contains(lines[1], "bbv-dist") {
		t.Fatalf("unexpected heading:\n%s", stdout.String())
	}
	for i, row := range lines[2:12] {
		fields := strings.Fields(row)
		if len(fields) < 3 || fields[0] != strconv.Itoa(i) {
			t.Fatalf("row %d: %q", i, row)
		}
		if zero := fields[2] == "0.000"; zero != (i == 0) {
			t.Errorf("interval %d: bbv-dist %s", i, fields[2])
		}
	}
}

// TestPhasesRejectsBadFlags checks that each bad flag value is refused
// and named before any trace is generated: the context is cancelled, so
// a value that slipped through would fail as cancelled instead.
func TestPhasesRejectsBadFlags(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range [][]string{
		{"-program", "nosuch"},
		{"-intervals", "0"},
		{"-interval-insts", "-1"},
		{"-k", "0"},
		{"-threshold", "1.5"},
	} {
		var stdout, stderr bytes.Buffer
		err := run(ctx, tc, &stdout, &stderr)
		if err == nil || !strings.Contains(err.Error(), tc[1]) {
			t.Errorf("%v: error %v, want one naming the value", tc, err)
		}
		if stdout.Len() != 0 || !strings.Contains(stderr.String(), tc[1]) {
			t.Errorf("%v: stdout %q, stderr %q", tc, stdout.String(), stderr.String())
		}
	}
}
