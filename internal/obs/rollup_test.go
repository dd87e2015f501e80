package obs

import (
	"math"
	"strings"
	"testing"
	"time"
)

// TestRollupStages asserts the stage grouping (first name token), counts,
// self/total accounting and deterministic row ordering.
func TestRollupStages(t *testing.T) {
	tr := NewTracer()
	tr.Enable()
	root := tr.Start("build")
	s1 := tr.Start("search mcf/0")
	s1.Finish()
	s2 := tr.Start("search swim/0")
	inner := tr.Start("search nested") // same stage nested: total counted once
	inner.Finish()
	s2.Finish()
	d := tr.StartDetached("http /v1/predict")
	d.Finish()
	root.Finish()

	rows := tr.Rollup()
	byStage := map[string]RollupRow{}
	var order []string
	for _, r := range rows {
		byStage[r.Stage] = r
		order = append(order, r.Stage)
	}
	if !sortedStrings(order) {
		t.Errorf("rows not sorted by stage: %v", order)
	}
	if r := byStage["search"]; r.Count != 3 {
		t.Errorf("search count = %d, want 3", r.Count)
	}
	if r := byStage["build"]; r.Count != 1 {
		t.Errorf("build count = %d, want 1", r.Count)
	}
	if r := byStage["http"]; r.Count != 1 {
		t.Errorf("http count = %d, want 1", r.Count)
	}
	// The nested same-stage span must not inflate the stage total beyond
	// the two top-level search spans' durations.
	sr := byStage["search"]
	if sr.TotalNS < sr.SelfNS {
		t.Errorf("search total %d < self %d", sr.TotalNS, sr.SelfNS)
	}
	var sb strings.Builder
	tr.WriteRollup(&sb)
	for _, want := range []string{"stage", "search", "http", "build"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("rollup table missing %q:\n%s", want, sb.String())
		}
	}
}

func sortedStrings(xs []string) bool {
	for i := 1; i < len(xs); i++ {
		if xs[i] < xs[i-1] {
			return false
		}
	}
	return true
}

// TestTreeDigestDeterministic asserts the digest is a pure function of
// the duration-free tree: same spans -> same digest, different args ->
// different digest.
func TestTreeDigestDeterministic(t *testing.T) {
	build := func(arg string) string {
		tr := NewTracer()
		tr.Enable()
		sp := tr.Start("stage a").SetArg("k", arg)
		tr.Start("child").Finish()
		sp.Finish()
		return tr.TreeDigest()
	}
	if build("v") != build("v") {
		t.Error("identical trees produced different digests")
	}
	if build("v") == build("w") {
		t.Error("different args produced the same digest")
	}
	if len(build("v")) != 64 {
		t.Errorf("digest length %d, want 64 hex chars", len(build("v")))
	}
}

// TestRootSeconds asserts that only root spans count: a child's time is
// inside its parent's, and a detached span is a root of its own.
func TestRootSeconds(t *testing.T) {
	tr := NewTracer()
	tr.Enable()
	a := tr.Start("a")
	b := tr.Start("b")
	time.Sleep(2 * time.Millisecond)
	b.Finish()
	a.Finish()
	c := tr.StartDetached("c")
	time.Sleep(time.Millisecond)
	c.Finish()

	total := map[string]int64{}
	for _, r := range tr.Rollup() {
		total[r.Stage] = r.TotalNS
	}
	want := float64(total["a"]+total["c"]) / 1e9
	if got := tr.RootSeconds(); math.Abs(got-want) > 1e-12 {
		t.Errorf("RootSeconds = %v, want a+c = %v", got, want)
	}
	if total["b"] < int64(2*time.Millisecond) {
		t.Errorf("child b total %d ns, want >= 2ms", total["b"])
	}
}
