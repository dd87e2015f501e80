package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestAdaptdFlagValues checks that every -train-scale preset trains at
// its own scale and that a bad -train-scale, -counter-set or -log-level
// is refused, named, before the model file is opened. The context is
// cancelled, so an accepted boot stops in the training build, and the
// model file holds no model, so opening it fails loudly.
func TestAdaptdFlagValues(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dir := t.TempDir()
	garbage := filepath.Join(dir, "garbage.model")
	if err := os.WriteFile(garbage, []byte("not a model"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range [][]string{
		{"-train-scale", "bogus"},
		{"-train-scale", "Test"},
		{"-counter-set", "basik"},
		{"-log-level", "debgu"},
	} {
		var stderr bytes.Buffer
		err := run(ctx, append([]string{"-model", garbage}, tc...), &stderr)
		if err == nil || !strings.Contains(err.Error(), tc[0]) || !strings.Contains(err.Error(), tc[1]) {
			t.Errorf("%v: error %v, want one naming the flag and its value", tc, err)
		}
		if strings.Contains(stderr.String(), "garbage.model") {
			t.Errorf("%v: the model file was opened before the flag was checked:\n%s", tc, stderr.String())
		}
	}

	for name, phases := range map[string]string{"test": "2", "mid": "4", "default": "10"} {
		var stderr bytes.Buffer
		err := run(ctx, []string{"-train-scale", name, "-model", filepath.Join(dir, name+".model")}, &stderr)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("-train-scale %s: error %v, want the cancelled build's", name, err)
		}
		if !strings.Contains(stderr.String(), "phasesPerProgram="+phases+"\n") {
			t.Errorf("-train-scale %s did not train at %s phases per program:\n%s", name, phases, stderr.String())
		}
	}
}
