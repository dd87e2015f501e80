package obs

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"strings"
	"sync"
	"testing"
)

func TestDisabledTracerIsNoop(t *testing.T) {
	tr := NewTracer()
	sp := tr.Start("nothing")
	sp.SetArg("k", "v")
	sp.Finish()
	if tr.SpanCount() != 0 {
		t.Errorf("disabled tracer recorded %d spans", tr.SpanCount())
	}
}

// workload records a fixed span shape: a root with two children, a
// grandchild, and one detached span.
func workload(tr *Tracer) {
	root := tr.Start("build").SetArg("phases", "2")
	a := tr.Start("search mcf/0")
	b := tr.Start("simulate")
	b.Finish()
	a.Finish()
	c := tr.Start("search swim/1")
	c.Finish()
	root.Finish()
	d := tr.StartDetached("http /v1/predict")
	d.Finish()
}

func TestSpanTreeShape(t *testing.T) {
	tr := NewTracer()
	tr.Enable()
	workload(tr)
	want := `build phases=2
  search mcf/0
    simulate
  search swim/1
http /v1/predict
`
	if got := tr.Tree(); got != want {
		t.Errorf("tree mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestTreeDeterminism asserts the property the pipeline relies on: two
// runs of the same seeded workload emit byte-identical span trees, even
// though wall-clock durations differ.
func TestTreeDeterminism(t *testing.T) {
	trees := make([]string, 2)
	for i := range trees {
		tr := NewTracer()
		tr.Enable()
		workload(tr)
		trees[i] = tr.Tree()
	}
	if trees[0] != trees[1] {
		t.Errorf("span trees differ across identical runs:\n%s\nvs\n%s", trees[0], trees[1])
	}
}

func TestWriteChromeIsValidTraceJSON(t *testing.T) {
	tr := NewTracer()
	tr.Enable()
	workload(tr)
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Tid  int               `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("invalid trace JSON: %v\n%s", err, buf.String())
	}
	if len(out.TraceEvents) != 5 {
		t.Fatalf("%d events, want 5", len(out.TraceEvents))
	}
	byName := map[string]int{}
	for _, ev := range out.TraceEvents {
		if ev.Ph != "X" {
			t.Errorf("event %q has phase %q, want X", ev.Name, ev.Ph)
		}
		byName[ev.Name] = ev.Tid
	}
	if byName["build"] != 1 || byName["http /v1/predict"] != 2 {
		t.Errorf("tids wrong: %v", byName)
	}
	for _, ev := range out.TraceEvents {
		if ev.Name == "build" && ev.Args["phases"] != "2" {
			t.Errorf("build args = %v", ev.Args)
		}
	}
}

func TestSpanLimitDrops(t *testing.T) {
	tr := NewTracer()
	tr.limit = 2
	tr.Enable()
	for i := 0; i < 5; i++ {
		tr.StartDetached("s").Finish()
	}
	if tr.SpanCount() != 2 {
		t.Errorf("kept %d spans, want 2", tr.SpanCount())
	}
	if tr.Dropped() != 3 {
		t.Errorf("dropped %d, want 3", tr.Dropped())
	}
	if !strings.Contains(tr.Tree(), "dropped 3 spans") {
		t.Error("tree does not report the drop")
	}
}

func TestTracerReset(t *testing.T) {
	tr := NewTracer()
	tr.Enable()
	tr.Start("a").Finish()
	tr.Reset()
	if tr.SpanCount() != 0 || tr.Tree() != "" {
		t.Errorf("reset left %d spans: %q", tr.SpanCount(), tr.Tree())
	}
	tr.Start("b").Finish()
	if tr.SpanCount() != 1 {
		t.Errorf("tracer unusable after reset: %d spans", tr.SpanCount())
	}
}

// TestConcurrentDetachedSpans exercises tracer concurrency (detached
// starts, finishes, snapshots) under -race via scripts/verify.sh.
func TestConcurrentDetachedSpans(t *testing.T) {
	tr := NewTracer()
	tr.Enable()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				sp := tr.StartDetached("req")
				sp.SetArg("n", "1")
				sp.Finish()
				if i%50 == 0 {
					var buf bytes.Buffer
					if err := tr.WriteChrome(&buf); err != nil {
						t.Error(err)
					}
				}
			}
		}()
	}
	wg.Wait()
	if tr.SpanCount() != 8*200 {
		t.Errorf("recorded %d spans, want %d", tr.SpanCount(), 8*200)
	}
}

func TestLoggerAndProgress(t *testing.T) {
	var buf bytes.Buffer
	lg := NewLogger(&buf, false, slog.LevelInfo)
	lg.Info("hello", "k", "v")
	line := buf.String()
	if strings.Contains(line, "time=") {
		t.Errorf("text handler kept timestamps: %q", line)
	}
	if !strings.Contains(line, "msg=hello") || !strings.Contains(line, "k=v") {
		t.Errorf("unexpected text line: %q", line)
	}

	buf.Reset()
	jlg := NewLogger(&buf, true, slog.LevelInfo)
	jlg.Info("hello")
	var js map[string]any
	if err := json.Unmarshal(buf.Bytes(), &js); err != nil {
		t.Fatalf("JSON handler emitted invalid JSON: %v", err)
	}
	if js["msg"] != "hello" {
		t.Errorf("json line: %v", js)
	}

	if got, err := ParseLevel("DEBUG"); got != slog.LevelDebug || err != nil {
		t.Errorf("ParseLevel(DEBUG) = %v, %v", got, err)
	}
	if got, err := ParseLevel("debgu"); got != slog.LevelInfo || err == nil || !strings.Contains(err.Error(), `"debgu"`) {
		t.Errorf("ParseLevel(debgu) = %v, %v; want Info and an error naming the value", got, err)
	}

	buf.Reset()
	p := &Progress{Logger: NewLogger(&buf, false, slog.LevelInfo)}
	p.Observe("search", 3, 10)           // first call: emits (throttle window empty)
	p.Observe("search", 4, 10)           // throttled
	p.Observe("search", 10, 10, "hr", 1) // final: always emits
	out := buf.String()
	if n := strings.Count(out, "msg=progress"); n != 2 {
		t.Errorf("%d progress lines, want 2:\n%s", n, out)
	}
	if !strings.Contains(out, "stage=search") || !strings.Contains(out, "done=10") || !strings.Contains(out, "hr=1") {
		t.Errorf("final line missing fields:\n%s", out)
	}
	if !strings.Contains(out, "eta=") {
		t.Errorf("mid-run line missing ETA:\n%s", out)
	}
}
