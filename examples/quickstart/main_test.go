package main

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// TestQuickstart runs the example and checks that it prints the baseline
// figures and the lean machine's comparison.
func TestQuickstart(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run(context.Background(), nil, &stdout, &stderr); err != nil {
		t.Fatalf("%v\n%s", err, stderr.String())
	}
	for _, want := range []string{"configuration:", "\nIPC:", "\nefficiency:", "\nlean machine:  IPC "} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, stdout.String())
		}
	}
}

// TestQuickstartRejectsFlags checks that the example, which takes no
// flags, refuses one.
func TestQuickstartRejectsFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run(context.Background(), []string{"-program", "mcf"}, &stdout, &stderr); err == nil {
		t.Fatal("-program accepted")
	}
	if stdout.Len() != 0 || !strings.Contains(stderr.String(), "-program") {
		t.Errorf("stdout %q, stderr %q", stdout.String(), stderr.String())
	}
}
