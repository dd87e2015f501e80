package experiment

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/counters"
)

// The training golden pins the soft-max trainer's observable output at
// TestScale (seed 1): a SHA-256 over the TrainAll weights for both
// counter sets, and the per-phase configurations TrainAll(Advanced) and
// the advanced leave-one-out evaluation predict. A trainer change that
// moves a weight bit trips the digest lines; regenerate them
// deliberately with REPRO_UPDATE_GOLDEN=1. A change that moves a
// predicted configuration is a model-output change: it must be listed in
// CHANGES.md and EXPERIMENTS.md, never absorbed by regenerating.

const trainGoldenPath = "testdata/train_golden.txt"

// weightDigest hashes every model's shape and weight bits in parameter
// order.
func weightDigest(p *core.Predictor) string {
	h := sha256.New()
	var b [8]byte
	for _, m := range p.Models {
		for _, v := range []uint64{uint64(m.D), uint64(m.K)} {
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
		for _, w := range m.W {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(w))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// trainGolden returns the pinned lines as key -> value, in order.
func trainGolden(t *testing.T) ([]string, map[string]string) {
	t.Helper()
	ds := testDataset(t)
	var order []string
	got := map[string]string{}
	add := func(k, v string) {
		order = append(order, k)
		got[k] = v
	}
	for _, set := range []counters.Set{counters.Advanced, counters.Basic} {
		p, err := ds.TrainAll(set)
		if err != nil {
			t.Fatal(err)
		}
		add("weights."+set.String(), weightDigest(p))
	}
	adv, err := ds.TrainAll(counters.Advanced)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ds.Phases {
		add("trainall.advanced:"+id.String(), adv.Predict(ds.FeaturesAdv[id]).String())
	}
	ev, err := ds.EvaluateModel(counters.Advanced)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ds.Phases {
		add("loocv.advanced:"+id.String(), ev.Predicted[id].String())
	}
	return order, got
}

func TestTrainGolden(t *testing.T) {
	order, got := trainGolden(t)

	if os.Getenv("REPRO_UPDATE_GOLDEN") != "" {
		var sb strings.Builder
		sb.WriteString("# Soft-max training golden at TestScale, seed 1: weight digests and per-phase predictions.\n")
		sb.WriteString("# Regenerate with REPRO_UPDATE_GOLDEN=1 go test ./internal/experiment -run TestTrainGolden\n")
		sb.WriteString("# A moved prediction line is a model-output change: list it in CHANGES.md and EXPERIMENTS.md.\n")
		for _, k := range order {
			fmt.Fprintf(&sb, "%s %s\n", k, got[k])
		}
		if err := os.MkdirAll(filepath.Dir(trainGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(trainGoldenPath, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d lines to %s", len(order), trainGoldenPath)
		return
	}

	f, err := os.Open(trainGoldenPath)
	if err != nil {
		t.Fatalf("training golden missing (run REPRO_UPDATE_GOLDEN=1 go test -run TestTrainGolden): %v", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		k, v, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		want[k] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(order) {
		t.Errorf("golden file has %d lines, suite has %d", len(want), len(order))
	}
	for _, k := range order {
		w, ok := want[k]
		switch {
		case !ok:
			t.Errorf("%s: no golden value recorded", k)
		case got[k] != w && strings.HasPrefix(k, "weights."):
			t.Errorf("%s: digest %s != golden %s — trainer numerics changed; "+
				"if intentional, show the predictions unchanged and regenerate", k, got[k], w)
		case got[k] != w:
			t.Errorf("%s: predicted %q, golden %q — model output changed", k, got[k], w)
		}
	}
}
