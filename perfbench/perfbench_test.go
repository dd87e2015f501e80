package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
)

func TestScheduleAndPoolDeterministicPerSeed(t *testing.T) {
	const dim, n = 16, 500
	build := func(seed uint64) ([][]float64, []serve.Arrival) {
		cfg := config{Workload: "serve-open", Seed: seed}
		cfg.resolveSeeds()
		pool := servePool(dim, cfg.PoolSeed)
		sched, err := scheduleFor(cfg, pool, n)
		if err != nil {
			t.Fatal(err)
		}
		return pool, sched
	}
	pool1, sched1 := build(1)
	pool1b, sched1b := build(1)
	if !reflect.DeepEqual(pool1, pool1b) || !reflect.DeepEqual(sched1, sched1b) {
		t.Fatal("the same seed gave different inputs")
	}
	pool2, sched2 := build(2)
	if reflect.DeepEqual(pool1, pool2) || reflect.DeepEqual(sched1, sched2) {
		t.Fatal("different seeds gave the same inputs")
	}
	if len(sched1) != n || len(pool1) != poolSize {
		t.Fatalf("got %d arrivals over a %d-vector pool, want %d over %d", len(sched1), len(pool1), n, poolSize)
	}
	for i := 1; i < len(sched1); i++ {
		if sched1[i].At < sched1[i-1].At {
			t.Fatalf("arrival %d is due before arrival %d", i, i-1)
		}
	}
}

func TestLatencyCountsFromDueTime(t *testing.T) {
	// One connection, a handler that takes 10ms, three requests due at
	// once: the third waits for the first two, and its latency must say so.
	const service = 10 * time.Millisecond
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(service)
		w.Write([]byte(`{}`))
	}))
	defer ts.Close()
	client := newClient(1)
	defer client.CloseIdleConnections()
	d := &dispatcher{
		client: client, url: ts.URL, conns: 1,
		bodies: [][]byte{[]byte(`{}`)},
		check:  func(int, []byte) (bool, error) { return false, nil },
	}
	reqs := d.run(context.Background(), make([]serve.Arrival, 3))
	for k, r := range reqs {
		if r.failed() {
			t.Fatalf("request %d failed: %v (code %d)", k, r.err, r.code)
		}
		if min := time.Duration(k+1) * service; r.latency() < min {
			t.Errorf("request %d: latency %v, want at least %v counted from its due time", k, r.latency(), min)
		}
		if r.done-r.sent > 5*service {
			t.Errorf("request %d: %v between send and reply", k, r.done-r.sent)
		}
	}
}

// benchmarkJSON is the part of BENCHMARK.json the program must agree with.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []metricDef `json:"end_to_end"`
	PerLayer  []metricDef `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if !reflect.DeepEqual(bj.EndToEnd, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json\n%v\ndiffers from the program's\n%v", bj.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bj.PerLayer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json\n%v\ndiffers from the program's\n%v", bj.PerLayer, perLayer)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for name := range workloads {
		want = append(want, name)
	}
	sort.Strings(names)
	sort.Strings(want)
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program's %v", names, want)
	}
}

// ledgerLayers are each workload's traced layers: with unattributed_s they
// partition op_wall_s.
var ledgerLayers = map[string][]string{
	"build-mid":  {"experiment.build_cold_s", "experiment.build_warm_s", "store.open_s"},
	"serve-open": {"loadgen.queue_s", "serve.handler_s"},
}

func TestTinyRunsPassEveryCheck(t *testing.T) {
	for name := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(name+"/trace="+trace, func(t *testing.T) {
				var out bytes.Buffer
				err := run([]string{
					"-workload", name, "-seed", "3", "-seconds", "0", "-trace", trace,
					"-tiny",
					"-work-dir", t.TempDir(),
				}, &out)
				if err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				defs := endToEnd
				if trace == "1" {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Fatalf("printed %d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Fatalf("metric %s missing or with unit %q", d.Name, m.Unit)
					}
				}
				if trace == "0" {
					for _, d := range endToEnd {
						if res.Metrics[d.Name].Value <= 0 {
							t.Errorf("%s = %v, want > 0", d.Name, res.Metrics[d.Name].Value)
						}
					}
					return
				}
				// Layer self times plus the unattributed time add up to the
				// traced operation's wall time.
				sum := res.Metrics["unattributed_s"].Value
				for _, layer := range ledgerLayers[name] {
					sum += res.Metrics[layer].Value
				}
				wall := res.Metrics["op_wall_s"].Value
				if wall <= 0 || (sum-wall)/wall > 1e-9 || (wall-sum)/wall > 1e-9 {
					t.Errorf("layers sum to %v s, operation wall time %v s", sum, wall)
				}
			})
		}
	}
}

func TestTrimmedMean(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{2}, 2},
		{[]float64{1, 3}, 2},
		{[]float64{9, 1.2, 0.8, 1.2, 0.85}, (0.85 + 1.2 + 1.2) / 3},
	} {
		if got := trimmedMean(c.xs); got != c.want {
			t.Errorf("trimmedMean(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestLedgerLayerTimes(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	tr := &tracer{on: true}
	var led ledger
	// Two operations of 100 ms and 60 ms; layer b is called twice in the
	// first.
	tr.add("a", ms(50))
	tr.add("b", ms(10))
	tr.add("b", ms(20))
	led.addOp(ms(100), tr)
	tr.reset()
	tr.add("a", ms(30))
	led.addOp(ms(60), tr)
	v := map[string]float64{}
	led.fill(v)
	want := map[string]float64{"op_wall_s": 0.08, "unattributed_s": 0.025, "a_s": 0.04, "b_s": 0.015}
	for k, w := range want {
		if d := v[k] - w; d > 1e-12 || d < -1e-12 {
			t.Errorf("%s = %v, want %v", k, v[k], w)
		}
	}
}
