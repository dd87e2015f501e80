package experiment

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/obs"
)

// obsScale is a deliberately tiny pipeline: the determinism test runs it
// twice.
func obsScale() Scale {
	return Scale{
		Programs:         []string{"mcf", "swim"},
		PhasesPerProgram: 1,
		IntervalInsts:    800,
		WarmupInsts:      400,
		UniformSamples:   4,
		LocalSamples:     2,
		GoodThreshold:    0.95,
		SampledSets:      8,
		Seed:             7,
	}
}

// runTracedPipeline builds a dataset and runs a LOOCV evaluation with the
// process tracer capturing spans, returning the duration-free span tree.
func runTracedPipeline(t *testing.T) string {
	t.Helper()
	tr := obs.DefaultTracer()
	tr.Reset()
	tr.Enable()
	defer tr.Disable()
	ds, err := Build(context.Background(), obsScale())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ds.EvaluateModel(counters.Basic); err != nil {
		t.Fatal(err)
	}
	tree := tr.Tree()
	tr.Reset()
	return tree
}

// TestPipelineSpanTreeDeterministic is the reproducibility contract for
// tracing: two seeded runs of the same pipeline must emit byte-identical
// span trees (names, args, ordering, hierarchy — durations excluded).
func TestPipelineSpanTreeDeterministic(t *testing.T) {
	first := runTracedPipeline(t)
	second := runTracedPipeline(t)
	if first != second {
		t.Errorf("span trees differ between seeded runs:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
	for _, want := range []string{
		"experiment.build-dataset", "tracegen", "search mcf/0",
		"best-static", "good-sets", "profile swim/0",
		"experiment.loocv basic", "fold mcf", "fold swim", "train Width",
	} {
		if !strings.Contains(first, want) {
			t.Errorf("span tree missing %q:\n%s", want, first)
		}
	}
}

// TestBuildCancelled asserts a pre-cancelled context aborts the
// build promptly with a wrapped context error.
func TestBuildCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Build(ctx, obsScale()); err == nil || !strings.Contains(err.Error(), "cancelled") {
		t.Errorf("Build with cancelled ctx: err = %v, want cancellation", err)
	}
	ds, err := Build(context.Background(), obsScale())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ds.EvaluateModelCtx(ctx, counters.Basic); err == nil || !strings.Contains(err.Error(), "cancelled") {
		t.Errorf("EvaluateModelCtx with cancelled ctx: err = %v, want cancellation", err)
	}
}

// TestMemoStatsAdvance asserts the memoisation counters move when a
// dataset is built (hits come from the repeated Result reads in the
// aggregate helpers and the search protocol's shared configs).
func TestMemoStatsAdvance(t *testing.T) {
	h0, m0 := MemoStats()
	ds, err := Build(context.Background(), obsScale())
	if err != nil {
		t.Fatal(err)
	}
	ds.RatioMean(ds.Phases, ds.Oracle())
	h1, m1 := MemoStats()
	if m1 <= m0 {
		t.Errorf("simulation counter did not advance: %d -> %d", m0, m1)
	}
	if h1 <= h0 {
		t.Errorf("memo-hit counter did not advance: %d -> %d", h0, h1)
	}
}

// TestTrainManifestDeterministic: every TrainAll predictor's per-parameter
// convergence joins the manifest's deterministic section, and two
// trainings on the same phases record identical values.
func TestTrainManifestDeterministic(t *testing.T) {
	ds := testDataset(t)
	if _, err := ds.TrainAll(counters.Basic); err != nil {
		t.Fatal(err)
	}
	m := obs.NewManifest("report")
	FillBuildManifest(m, ds)
	iters, ok := m.Deterministic["train.basic.Width.iters"].(int)
	if !ok || iters <= 0 {
		t.Fatalf("train.basic.Width.iters = %v, want a positive count", m.Deterministic["train.basic.Width.iters"])
	}
	for _, key := range []string{"evals", "objective", "gradNorm"} {
		if _, ok := m.Deterministic["train.basic.Depth."+key]; !ok {
			t.Errorf("manifest lacks train.basic.Depth.%s", key)
		}
	}
	p, err := core.TrainPredictor(counters.Basic, ds.phaseExamples(ds.FeaturesBasic, ds.Phases), TrainOptions())
	if err != nil {
		t.Fatal(err)
	}
	again := obs.NewManifest("report")
	FillBuildManifest(again, ds)
	FillTrainManifest(again, p)
	if d := obs.DiffDeterministic(m, again); d != "" {
		t.Errorf("retraining changed deterministic field %q", d)
	}
}

// predManifest builds obsScale fresh, trains and evaluates both counter
// sets, and returns the manifest with the build and evaluation keys.
func predManifest(t *testing.T) (*obs.Manifest, []*Evaluation) {
	t.Helper()
	ds, err := Build(context.Background(), obsScale())
	if err != nil {
		t.Fatal(err)
	}
	m := obs.NewManifest("report")
	var evs []*Evaluation
	for _, set := range []counters.Set{counters.Advanced, counters.Basic} {
		if _, err := ds.TrainAll(set); err != nil {
			t.Fatal(err)
		}
		ev, err := ds.EvaluateModel(set)
		if err != nil {
			t.Fatal(err)
		}
		if want := len(ds.Programs()) * int(arch.NumParams); len(ev.FoldStats) != want {
			t.Errorf("%s: %d fold stats, want %d", set, len(ev.FoldStats), want)
		}
		FillEvalManifest(m, ev)
		evs = append(evs, ev)
	}
	FillBuildManifest(m, ds)
	return m, evs
}

// TestPredictionManifestKeys: the manifest's deterministic section says
// what the models predicted (train.<set>.predDigest, eval.<set>.predDigest)
// and how far the fold models converged, identically for two fresh builds
// of one scale, so an obsdiff is the check for "predictions unchanged".
func TestPredictionManifestKeys(t *testing.T) {
	m, evs := predManifest(t)
	for _, set := range []string{"advanced", "basic"} {
		for _, key := range []string{"train." + set + ".predDigest", "eval." + set + ".predDigest"} {
			if d, ok := m.Deterministic[key].(string); !ok || len(d) != 64 {
				t.Errorf("%s = %v, want a SHA-256 hex digest", key, m.Deterministic[key])
			}
		}
	}
	for _, ev := range evs {
		unconverged, maxGrad := 0, 0.0
		for _, st := range ev.FoldStats {
			if st.GradNorm >= TrainOptions().Tol {
				unconverged++
			}
			maxGrad = math.Max(maxGrad, st.GradNorm)
		}
		key := "eval." + ev.Set.String() + "."
		if got := m.Deterministic[key+"unconverged"]; got != unconverged {
			t.Errorf("%sunconverged = %v, want %d", key, got, unconverged)
		}
		if got := m.Deterministic[key+"maxGradNorm"]; got != maxGrad || maxGrad <= 0 {
			t.Errorf("%smaxGradNorm = %v, want %v > 0", key, got, maxGrad)
		}
	}

	again, _ := predManifest(t)
	if d := obs.DiffDeterministic(m, again); d != "" {
		t.Errorf("two fresh builds differ in deterministic field %q", d)
	}

	// The digest covers every phase's configuration: moving one changes it.
	ev := evs[0]
	for id, cfg := range ev.Predicted {
		cfg[arch.Width] = arch.Domain(arch.Width)[0]
		if cfg == ev.Predicted[id] {
			cfg[arch.Width] = arch.Domain(arch.Width)[1]
		}
		ev.Predicted[id] = cfg
		break
	}
	moved := obs.NewManifest("report")
	FillEvalManifest(moved, ev)
	if moved.Deterministic["eval.advanced.predDigest"] == m.Deterministic["eval.advanced.predDigest"] {
		t.Error("eval.advanced.predDigest did not change when a prediction moved")
	}
}
