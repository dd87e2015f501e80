package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/counters"
)

// batchBody marshals a batch predict payload.
func batchBody(t testing.TB, batch [][]float64) []byte {
	t.Helper()
	b, err := json.Marshal(PredictRequest{Batch: batch})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// testBatch builds n distinct basic-set vectors, with index dup (if >= 0)
// duplicating index 0 to exercise intra-batch dedup.
func testBatch(n, dup int) [][]float64 {
	d := counters.Dim(counters.Basic)
	batch := SyntheticFeatures(d, n, 99)
	if dup >= 0 {
		batch[dup] = batch[0]
	}
	return batch
}

// TestPredictBatchByteIdentical is the tentpole's correctness contract: a
// batched response must be byte-identical to the concatenation of the
// responses the same vectors produce when sent individually, in order —
// cached flags included. Two identically configured servers start from the
// same (empty) cache state; one takes the batch, the other the singles.
func TestPredictBatchByteIdentical(t *testing.T) {
	for _, probs := range []string{"", "?probs=1"} {
		for _, quantized := range []bool{false, true} {
			name := fmt.Sprintf("quantized=%v%s", quantized, probs)
			t.Run(name, func(t *testing.T) {
				batch := testBatch(6, 4) // item 4 duplicates item 0
				_, batchTS := newTestServerQ(t, quantized, WithCacheSize(64))
				_, singleTS := newTestServerQ(t, quantized, WithCacheSize(64))

				resp, got := postPath(t, batchTS, "/v1/predict"+probs, batchBody(t, batch))
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("batch status %d: %s", resp.StatusCode, got)
				}
				if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
					t.Errorf("batch Content-Type %q, want application/x-ndjson", ct)
				}

				var want bytes.Buffer
				for _, f := range batch {
					body, err := json.Marshal(PredictRequest{Features: f})
					if err != nil {
						t.Fatal(err)
					}
					r, data := postPath(t, singleTS, "/v1/predict"+probs, body)
					if r.StatusCode != http.StatusOK {
						t.Fatalf("single status %d: %s", r.StatusCode, data)
					}
					want.Write(data)
				}
				if !bytes.Equal(got, want.Bytes()) {
					t.Errorf("batch response differs from concatenated singles:\n--- batch ---\n%s\n--- singles ---\n%s", got, want.Bytes())
				}
				// The duplicated item must report cached, as its single twin did.
				dec := json.NewDecoder(bytes.NewReader(got))
				var items []PredictResponse
				for {
					var pr PredictResponse
					if dec.Decode(&pr) != nil {
						break
					}
					items = append(items, pr)
				}
				if len(items) != len(batch) {
					t.Fatalf("decoded %d batch items, want %d", len(items), len(batch))
				}
				if items[0].Cached || !items[4].Cached {
					t.Errorf("cached flags: item0=%v item4=%v, want false,true", items[0].Cached, items[4].Cached)
				}
			})
		}
	}
}

func TestPredictBatchEmpty(t *testing.T) {
	_, ts := newTestServer(t)
	resp, data := postPredict(t, ts, []byte(`{"batch": []}`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch -> %d: %s", resp.StatusCode, data)
	}
	var eb errorBody
	if err := json.Unmarshal(data, &eb); err != nil || !strings.Contains(eb.Error, "empty batch") {
		t.Errorf("unhelpful empty-batch error: %s", data)
	}
}

func TestPredictBatchOverMaxBody(t *testing.T) {
	_, ts := newTestServer(t, WithMaxBody(512))
	resp, data := postPredict(t, ts, batchBody(t, testBatch(64, -1)))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch -> %d: %s", resp.StatusCode, data)
	}
}

func TestPredictBatchMixedDimensions(t *testing.T) {
	_, ts := newTestServer(t, WithCacheSize(16))
	batch := testBatch(4, -1)
	batch[2] = []float64{1, 2, 3} // wrong dimension mid-batch
	resp, data := postPredict(t, ts, batchBody(t, batch))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("mixed-dimension batch -> %d: %s", resp.StatusCode, data)
	}
	var eb errorBody
	if err := json.Unmarshal(data, &eb); err != nil {
		t.Fatalf("non-envelope error: %s", data)
	}
	if !strings.Contains(eb.Error, "batch item 2") || !strings.Contains(eb.Error, "whole batch rejected") {
		t.Errorf("error does not name the offending index: %q", eb.Error)
	}
}

// TestPredictBatchRejectionComputesNothing asserts a rejected batch leaves
// no trace: no cache entries, no kernel calls.
func TestPredictBatchRejectionComputesNothing(t *testing.T) {
	s, ts := newTestServer(t, WithCacheSize(16))
	batch := testBatch(4, -1)
	batch[3] = []float64{1}
	postPredict(t, ts, batchBody(t, batch))
	if n := s.cache.len(); n != 0 {
		t.Errorf("rejected batch cached %d entries", n)
	}
	if got := s.metrics.batches.Value(); got != 0 {
		t.Errorf("rejected batch ran %d kernel calls", got)
	}
}

// TestPredictBatchHitsSingleRequestCache asserts the LRU is shared between
// the single and batch paths: a batch item identical to a previously
// cached single request must hit.
func TestPredictBatchHitsSingleRequestCache(t *testing.T) {
	s, ts := newTestServer(t, WithCacheSize(16))
	batch := testBatch(3, -1)
	single, err := json.Marshal(PredictRequest{Features: batch[1]})
	if err != nil {
		t.Fatal(err)
	}
	if resp, data := postPredict(t, ts, single); resp.StatusCode != http.StatusOK {
		t.Fatalf("single status %d: %s", resp.StatusCode, data)
	}
	resp, data := postPredict(t, ts, batchBody(t, batch))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, data)
	}
	var items []PredictResponse
	dec := json.NewDecoder(bytes.NewReader(data))
	for {
		var pr PredictResponse
		if dec.Decode(&pr) != nil {
			break
		}
		items = append(items, pr)
	}
	if len(items) != 3 {
		t.Fatalf("decoded %d items, want 3", len(items))
	}
	if items[0].Cached || !items[1].Cached || items[2].Cached {
		t.Errorf("cached flags %v,%v,%v; want false,true,false", items[0].Cached, items[1].Cached, items[2].Cached)
	}
	if hits := s.metrics.hits.Value(); hits != 1 {
		t.Errorf("cache hits = %d, want 1", hits)
	}
	// And the reverse: a single request identical to a batch-computed item
	// must hit the entries the batch populated.
	if resp, _ := postPredict(t, ts, single); resp.StatusCode != http.StatusOK {
		t.Fatal("single after batch failed")
	}
	if hits := s.metrics.hits.Value(); hits != 2 {
		t.Errorf("cache hits after single-after-batch = %d, want 2", hits)
	}
}

func TestPredictBatchAndFeaturesMutuallyExclusive(t *testing.T) {
	_, ts := newTestServer(t)
	d := counters.Dim(counters.Basic)
	f := make([]float64, d)
	b, err := json.Marshal(PredictRequest{Features: f, Batch: [][]float64{f}})
	if err != nil {
		t.Fatal(err)
	}
	resp, data := postPredict(t, ts, b)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("features+batch -> %d: %s", resp.StatusCode, data)
	}
	if !strings.Contains(string(data), "mutually exclusive") {
		t.Errorf("unhelpful error: %s", data)
	}
}

// TestErrorEnvelopeAndAllow is the table-driven contract for the unified
// error surface: every route answers a disallowed method with 405, the
// JSON {"error": ...} envelope, and a correct Allow header.
func TestErrorEnvelopeAndAllow(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		path   string
		method string // the wrong method to send
		allow  string // what Allow must advertise
	}{
		{"/v1/predict", http.MethodGet, http.MethodPost},
		{"/v1/designspace", http.MethodPost, http.MethodGet},
		{"/v1/reload", http.MethodGet, http.MethodPost},
		{"/healthz", http.MethodDelete, http.MethodGet},
		{"/metrics", http.MethodPost, http.MethodGet},
	}
	for _, tc := range cases {
		t.Run(tc.method+" "+tc.path, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			data, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusMethodNotAllowed {
				t.Fatalf("status %d, want 405: %s", resp.StatusCode, data)
			}
			if got := resp.Header.Get("Allow"); got != tc.allow {
				t.Errorf("Allow = %q, want %q", got, tc.allow)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Errorf("Content-Type = %q, want application/json", ct)
			}
			var eb errorBody
			if err := json.Unmarshal(data, &eb); err != nil || eb.Error == "" {
				t.Errorf("no JSON error envelope: %s", data)
			}
		})
	}
}

// TestEnginePredictBatchMatchesPredict pins the bit-identity claim at the
// engine layer, for both weight formats.
func TestEnginePredictBatchMatchesPredict(t *testing.T) {
	pred := trainTestPredictor(t, counters.Basic)
	for _, quantized := range []bool{false, true} {
		eng, err := NewEngine(pred, quantized)
		if err != nil {
			t.Fatal(err)
		}
		batch := SyntheticFeatures(eng.Dim(), 16, 11)
		cfgs, probs := eng.PredictBatch(batch)
		for i, f := range batch {
			wantCfg, wantProbs := eng.Predict(f)
			if cfgs[i] != wantCfg {
				t.Errorf("quantized=%v item %d: batch config %v != single %v", quantized, i, cfgs[i], wantCfg)
			}
			for p := arch.Param(0); p < arch.NumParams; p++ {
				for k := range wantProbs[p] {
					if probs[i][p][k] != wantProbs[p][k] {
						t.Fatalf("quantized=%v item %d param %s class %d: prob %g != %g (not bit-identical)",
							quantized, i, p, k, probs[i][p][k], wantProbs[p][k])
					}
				}
			}
		}
	}
}

// TestLoadGenBatchMode drives the loadgen's batch payloads end to end.
func TestLoadGenBatchMode(t *testing.T) {
	_, ts := newTestServer(t, WithCacheSize(64), WithMaxInflight(32))
	lg := LoadGen{
		Requests:    120,
		Concurrency: 4,
		Seed:        42,
		Pool:        SyntheticFeatures(counters.Dim(counters.Basic), 8, 42),
		Batch:       16,
	}
	rep, err := lg.Run(ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 120 || rep.OK != 120 || rep.ServerErr != 0 || rep.Transport != 0 {
		t.Errorf("unexpected counts: %+v", rep)
	}
	if want := (120 + 15) / 16; rep.Batches != want {
		t.Errorf("batches = %d, want %d", rep.Batches, want)
	}
	// 120 requests over an 8-vector pool: most items repeat.
	if rep.CacheHits == 0 {
		t.Error("no cache hits in batch mode over a tiny pool")
	}
}
