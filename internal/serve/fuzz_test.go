package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/counters"
)

// FuzzPredictBody posts arbitrary bodies, single and batch, to
// /v1/predict: every response must be a 2xx decision or a 4xx JSON error
// envelope — never a 5xx, a malformed body or a dropped connection (which
// is what a handler panic turns into).
func FuzzPredictBody(f *testing.F) {
	d := counters.Dim(counters.Basic)
	vec := make([]float64, d)
	vec[0], vec[d-1] = 1, 1
	single, _ := json.Marshal(PredictRequest{Features: vec, Class: "batch"})
	batch, _ := json.Marshal(PredictRequest{Batch: [][]float64{vec, vec, make([]float64, d)}})
	both, _ := json.Marshal(PredictRequest{Features: vec, Batch: [][]float64{vec}})
	huge := make([]float64, d)
	for i := range huge {
		huge[i] = 1e308 * float64(1-2*(i%2))
	}
	extreme, _ := json.Marshal(PredictRequest{Features: huge})
	for _, seed := range []string{
		string(single),
		string(batch),
		string(both),
		string(extreme),
		`{"batch": []}`,
		`{"batch": [[1, 2]]}`,
		`{"features": [1, 2,`,
		`{broken`,
		`{"features": [1], "set": "advanced"}`,
		`{"features": [1], "class": "vip"}`,
		`null`,
	} {
		f.Add([]byte(seed), false)
		f.Add([]byte(seed), true)
	}
	_, ts := newTestServer(f, WithCacheSize(64))
	f.Fuzz(func(t *testing.T, body []byte, probs bool) {
		path := "/v1/predict"
		if probs {
			path += "?probs=1"
		}
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("transport error (handler panic?): %v", err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("reading response: %v", err)
		}
		if resp.StatusCode >= 500 {
			t.Fatalf("status %d for body %q: %s", resp.StatusCode, body, data)
		}
		if resp.StatusCode != http.StatusOK {
			var e errorBody
			if err := json.Unmarshal(data, &e); err != nil || e.Error == "" {
				t.Fatalf("status %d without a JSON error envelope: %q", resp.StatusCode, data)
			}
			return
		}
		// A single decision is one document; a batch streams one per item.
		dec := json.NewDecoder(bytes.NewReader(data))
		docs := 0
		for {
			var pr PredictResponse
			err := dec.Decode(&pr)
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				t.Fatalf("200 response is not valid JSON (%v): %q", err, data)
			}
			if len(pr.Config) != int(arch.NumParams) {
				t.Fatalf("decision names %d parameters, want %d: %q", len(pr.Config), arch.NumParams, data)
			}
			docs++
		}
		if docs == 0 {
			t.Fatalf("200 response with no decision: %q", data)
		}
		if ndjson := strings.Contains(resp.Header.Get("Content-Type"), "ndjson"); !ndjson && docs != 1 {
			t.Fatalf("single predict returned %d documents", docs)
		}
	})
}
