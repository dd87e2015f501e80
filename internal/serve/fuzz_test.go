package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"

	"repro/internal/arch"
	"repro/internal/counters"
)

// predictBodySeeds is the /v1/predict body corpus both fuzz targets start
// from. The "batch" bodies are a retired request shape, kept because they
// are still hostile input: the key must be skipped, never acted on.
func predictBodySeeds() []string {
	d := counters.Dim(counters.Basic)
	vec := make([]float64, d)
	vec[0], vec[d-1] = 1, 1
	single, _ := json.Marshal(PredictRequest{Features: vec, Class: "batch"})
	batch, _ := json.Marshal(map[string]any{"batch": [][]float64{vec, vec, make([]float64, d)}})
	both, _ := json.Marshal(map[string]any{"features": vec, "batch": [][]float64{vec}})
	huge := make([]float64, d)
	for i := range huge {
		huge[i] = 1e308 * float64(1-2*(i%2))
	}
	extreme, _ := json.Marshal(PredictRequest{Features: huge})
	return []string{
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
	}
}

// FuzzPredictBody posts arbitrary bodies to /v1/predict: every response
// must be one 2xx decision or a 4xx JSON error envelope — never a 5xx, a
// malformed body or a dropped connection (which is what a handler panic
// turns into).
func FuzzPredictBody(f *testing.F) {
	for _, seed := range predictBodySeeds() {
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
		var pr PredictResponse
		dec := json.NewDecoder(bytes.NewReader(data))
		if err := dec.Decode(&pr); err != nil {
			t.Fatalf("200 response is not valid JSON (%v): %q", err, data)
		}
		if len(pr.Config) != int(arch.NumParams) {
			t.Fatalf("decision names %d parameters, want %d: %q", len(pr.Config), arch.NumParams, data)
		}
		if dec.More() {
			t.Fatalf("predict returned more than one document: %q", data)
		}
	})
}

// FuzzDecodePredict feeds every body to encoding/json — the specification
// — and to decodePredict, whole and through a MaxBytesReader that cuts it
// in half: both must return the same error text, and on success equal
// requests (floats by bit pattern, nil and empty slices apart).
func FuzzDecodePredict(f *testing.F) {
	for _, seed := range append(predictBodySeeds(),
		`{"Features": [1, 2]}`,
		`{"features": [1], "features": [2, 3]}`,
		`{"features": [1], "batch": [[1]]}`,
		`{"features": [1E+2, -0, 0, 1e-400, 5e-324]}`,
		`{"features": [1e999]}`,
		`{"features": [01]}`,
		`{"features": [.5]}`,
		`{"features": [+1]}`,
		`{"features": [NaN]}`,
		// The edges of parseFloat's exact fast path: mantissas around
		// 2^53, 16 and 17 significant digits, 22 and 23 fraction digits,
		// negative zeros, leading zeros and integers.
		`{"features": [9007199254740991, 9007199254740992, 9007199254740993, -9007199254740993]}`,
		`{"features": [9.007199254740992, 0.9007199254740993, 900719925474099.3]}`,
		`{"features": [1234567890123456, 12345678901234567, 0.1234567890123456, 0.12345678901234567]}`,
		`{"features": [0.0000001234567890123456, 0.00000001234567890123456, 1.0000000000000000000000, 0.00000000000000000000001]}`,
		`{"features": [-0.0, -0, 0.000000000000000000000000, -0.00000000000000000000000]}`,
		`{"features": [0, 1, -1, 42, 100000000000000000000, 1e22, 1e23, 123456789012345678901234567890]}`,
		`{"features": [1]} trailing garbage`,
		`{"features": null, "batch": [null, [1], []], "set": null, "class": null}`,
		`{"set": "basic", "class": "batch", "extra": {"a": [1, {}]}}`,
		` {} `,
	) {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, limit := range []int64{-1, int64(len(body) / 2)} {
			open := func() io.Reader {
				if limit < 0 {
					return bytes.NewReader(body)
				}
				return http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), limit)
			}
			var want, got PredictRequest
			wantErr := json.NewDecoder(open()).Decode(&want)
			gotErr := decodePredict(open(), &got)
			if fmt.Sprint(wantErr) != fmt.Sprint(gotErr) {
				t.Fatalf("limit %d, body %q: error %v, encoding/json says %v", limit, body, gotErr, wantErr)
			}
			if wantErr == nil {
				if diff := diffPredict(want, got); diff != "" {
					t.Fatalf("limit %d, body %q: %s", limit, body, diff)
				}
			}
		}
	})
}
