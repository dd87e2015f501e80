package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/softmax"
)

// trainTestPredictor builds a cheap two-phase predictor on real feature
// dimensions (same pattern as internal/core's toy trainer).
func trainTestPredictor(t testing.TB, set counters.Set) *core.Predictor {
	t.Helper()
	d := counters.Dim(set)
	memFeat := make([]float64, d)
	memFeat[0] = 1
	memFeat[d-1] = 1
	cpuFeat := make([]float64, d)
	cpuFeat[1] = 1
	cpuFeat[d-1] = 1
	phases := []core.PhaseExample{
		{Features: memFeat, Good: []arch.Config{arch.Baseline().With(arch.L2CacheKB, 4096).With(arch.Width, 2)}},
		{Features: cpuFeat, Good: []arch.Config{arch.Baseline().With(arch.L2CacheKB, 256).With(arch.Width, 8)}},
	}
	opts := softmax.DefaultOptions()
	opts.MaxIter = 40
	pred, err := core.TrainPredictor(set, phases, opts)
	if err != nil {
		t.Fatal(err)
	}
	return pred
}

// newTestServer boots a server (basic counters: small feature dimension)
// and its httptest frontend.
func newTestServer(t testing.TB, opts ...Option) (*Server, *httptest.Server) {
	t.Helper()
	return newTestServerQ(t, false, opts...)
}

// newTestServerQ is newTestServer with an explicit weight format.
func newTestServerQ(t testing.TB, quantized bool, opts ...Option) (*Server, *httptest.Server) {
	t.Helper()
	pred := trainTestPredictor(t, counters.Basic)
	eng, err := NewEngine(pred, quantized)
	if err != nil {
		t.Fatal(err)
	}
	s := New(eng, opts...)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(s.Close)
	return s, ts
}

// predictBody builds a predict payload for a dim-d vector with v at index 0.
func predictBody(t testing.TB, d int, v float64) []byte {
	t.Helper()
	f := make([]float64, d)
	f[0] = v
	f[d-1] = 1
	b, err := json.Marshal(PredictRequest{Features: f})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// postPath POSTs a JSON body to the given path (query string allowed).
func postPath(t testing.TB, ts *httptest.Server, path string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func postPredict(t testing.TB, ts *httptest.Server, body []byte) (*http.Response, []byte) {
	t.Helper()
	return postPath(t, ts, "/v1/predict", body)
}

func TestPredictReturnsValidConfig(t *testing.T) {
	_, ts := newTestServer(t)
	d := counters.Dim(counters.Basic)
	resp, data := postPath(t, ts, "/v1/predict?probs=1", predictBody(t, d, 1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var pr PredictResponse
	if err := json.Unmarshal(data, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Cached {
		t.Error("first request reported as cached")
	}
	if pr.Set != "basic" || pr.Quantized {
		t.Errorf("wrong model info: set=%q quantized=%v", pr.Set, pr.Quantized)
	}
	var cfg arch.Config
	for p := arch.Param(0); p < arch.NumParams; p++ {
		v, ok := pr.Config[p.String()]
		if !ok {
			t.Fatalf("response missing parameter %s", p)
		}
		cfg[p] = v
		probs := pr.Probabilities[p.String()]
		if len(probs) != arch.DomainSize(p) {
			t.Errorf("%s has %d probabilities, want %d", p, len(probs), arch.DomainSize(p))
		}
		sum := 0.0
		for _, q := range probs {
			sum += q
		}
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("%s probabilities sum to %f", p, sum)
		}
	}
	if err := cfg.Check(); err != nil {
		t.Errorf("predicted config invalid: %v", err)
	}
}

// TestPredictProbabilitiesOptIn asserts the distributions only appear with
// ?probs=1: the default response omits the field entirely, and the opted-in
// body is unchanged by the flag's existence for everything else.
func TestPredictProbabilitiesOptIn(t *testing.T) {
	_, ts := newTestServer(t)
	d := counters.Dim(counters.Basic)
	body := predictBody(t, d, 1)
	_, plain := postPredict(t, ts, body)
	if strings.Contains(string(plain), `"probabilities"`) {
		t.Errorf("default response carries probabilities:\n%s", plain)
	}
	_, withProbs := postPath(t, ts, "/v1/predict?probs=1", body)
	var pr PredictResponse
	if err := json.Unmarshal(withProbs, &pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Probabilities) != int(arch.NumParams) {
		t.Errorf("?probs=1 returned %d distributions, want %d", len(pr.Probabilities), arch.NumParams)
	}
	if len(plain) >= len(withProbs) {
		t.Errorf("default response (%d bytes) not smaller than ?probs=1 (%d bytes)", len(plain), len(withProbs))
	}
	// The two responses agree on everything but the distributions.
	var plainPR PredictResponse
	if err := json.Unmarshal(plain, &plainPR); err != nil {
		t.Fatal(err)
	}
	for name, v := range pr.Config {
		if plainPR.Config[name] != v {
			t.Errorf("config differs between probs modes for %s", name)
		}
	}
}

func TestPredictCacheHitOnRepeat(t *testing.T) {
	s, ts := newTestServer(t, WithCacheSize(16))
	d := counters.Dim(counters.Basic)
	body := predictBody(t, d, 0.5)
	_, first := postPredict(t, ts, body)
	resp, second := postPredict(t, ts, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var pr1, pr2 PredictResponse
	if err := json.Unmarshal(first, &pr1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(second, &pr2); err != nil {
		t.Fatal(err)
	}
	if pr1.Cached || !pr2.Cached {
		t.Errorf("cached flags = %v, %v; want false, true", pr1.Cached, pr2.Cached)
	}
	for name, v := range pr1.Config {
		if pr2.Config[name] != v {
			t.Errorf("cached decision differs for %s: %d vs %d", name, v, pr2.Config[name])
		}
	}
	if s.HitRate() <= 0 {
		t.Error("hit rate not positive after repeat")
	}
}

func TestPredictMalformedJSON(t *testing.T) {
	_, ts := newTestServer(t)
	resp, data := postPredict(t, ts, []byte(`{"features": [1, 2,`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d for malformed JSON: %s", resp.StatusCode, data)
	}
	var eb errorBody
	if err := json.Unmarshal(data, &eb); err != nil || eb.Error == "" {
		t.Errorf("no JSON error payload: %s", data)
	}
}

func TestPredictWrongDimension(t *testing.T) {
	_, ts := newTestServer(t)
	b, _ := json.Marshal(PredictRequest{Features: []float64{1, 2, 3}})
	resp, data := postPredict(t, ts, b)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d for wrong dimension", resp.StatusCode)
	}
	if !strings.Contains(string(data), "dimension") {
		t.Errorf("unhelpful error: %s", data)
	}
}

func TestPredictWrongSetTag(t *testing.T) {
	_, ts := newTestServer(t)
	d := counters.Dim(counters.Basic)
	f := make([]float64, d)
	b, _ := json.Marshal(PredictRequest{Features: f, Set: "advanced"})
	resp, data := postPredict(t, ts, b)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d for mismatched set tag: %s", resp.StatusCode, data)
	}
}

func TestPredictOversizedBody(t *testing.T) {
	_, ts := newTestServer(t, WithMaxBody(256))
	big := make([]float64, 4096)
	b, _ := json.Marshal(PredictRequest{Features: big})
	resp, data := postPredict(t, ts, b)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d for oversized body: %s", resp.StatusCode, data)
	}
}

func TestPredictMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/predict")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/predict -> %d, want 405", resp.StatusCode)
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
		{"/v1/status", http.MethodPost, http.MethodGet},
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

func TestPredictSaturationReturns429(t *testing.T) {
	// MaxInflight 1 plus a request that parks inside the handler forces
	// the next request onto the backpressure path.
	s, ts := newTestServer(t, WithMaxInflight(1), WithTimeout(5*time.Second))
	release := make(chan struct{})
	s.sem <- struct{}{} // occupy the only slot, as a parked request would
	go func() {
		<-release
		<-s.sem
	}()
	d := counters.Dim(counters.Basic)
	resp, data := postPredict(t, ts, predictBody(t, d, 1))
	close(release)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d under saturation: %s", resp.StatusCode, data)
	}
	if !strings.Contains(s.MetricsText(), "adaptd_saturated_total 1") {
		t.Error("saturation not counted in metrics")
	}
}

func TestDesignSpaceEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/designspace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var ds DesignSpaceResponse
	if err := json.NewDecoder(resp.Body).Decode(&ds); err != nil {
		t.Fatal(err)
	}
	if len(ds.Parameters) != int(arch.NumParams) {
		t.Errorf("%d parameters, want %d", len(ds.Parameters), arch.NumParams)
	}
	if ds.SpacePoints != arch.SpaceSize() {
		t.Errorf("space points %d, want %d", ds.SpacePoints, arch.SpaceSize())
	}
	if ds.Model.Set != "basic" || ds.Model.Dim != counters.Dim(counters.Basic) {
		t.Errorf("bad model info: %+v", ds.Model)
	}
	for i, p := range ds.Parameters {
		if p.Name != arch.Param(i).String() || len(p.Values) != arch.DomainSize(arch.Param(i)) {
			t.Errorf("parameter %d wrong: %+v", i, p)
		}
	}
}

func TestHealthzEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Model.Weights <= 0 {
		t.Errorf("bad health payload: %+v", h)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, WithCacheSize(8))
	d := counters.Dim(counters.Basic)
	body := predictBody(t, d, 1)
	postPredict(t, ts, body)
	postPredict(t, ts, body)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	text := string(data)
	for _, want := range []string{
		`adaptd_requests_total{path="/v1/predict",code="200"} 2`,
		"adaptd_cache_hits_total 1",
		"adaptd_cache_misses_total 1",
		"adaptd_predict_latency_seconds_count 2",
		`adaptd_predict_latency_seconds_bucket{le="+Inf"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q in:\n%s", want, text)
		}
	}
}

// writeModel saves a predictor to a temp file and returns the path.
func writeModel(t testing.TB, pred *core.Predictor) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "model.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pred.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestReloadHotSwapsAndPurgesCache(t *testing.T) {
	pred := trainTestPredictor(t, counters.Basic)
	path := writeModel(t, pred)
	eng, err := NewEngine(pred, false)
	if err != nil {
		t.Fatal(err)
	}
	s := New(eng, WithModelPath(path), WithCacheSize(8))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	d := counters.Dim(counters.Basic)
	postPredict(t, ts, predictBody(t, d, 1))
	if s.cache.len() == 0 {
		t.Fatal("no cache entry before reload")
	}
	resp, err := http.Post(ts.URL+"/v1/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		t.Fatalf("reload status %d: %s", resp.StatusCode, data)
	}
	var rr ReloadResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	if !rr.Reloaded || rr.Model.Set != "basic" {
		t.Errorf("bad reload payload: %+v", rr)
	}
	if s.cache.len() != 0 {
		t.Error("cache not purged by reload")
	}
	if s.Engine() == eng {
		t.Error("engine pointer not swapped")
	}
	// And the swapped engine still answers.
	r2, data := postPredict(t, ts, predictBody(t, d, 1))
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("predict after reload: %d %s", r2.StatusCode, data)
	}
}

func TestReloadWithoutModelPath(t *testing.T) {
	_, ts := newTestServer(t) // no ModelPath
	resp, err := http.Post(ts.URL+"/v1/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("reload without path -> %d, want 409", resp.StatusCode)
	}
}

func TestReloadRejectsCorruptFile(t *testing.T) {
	pred := trainTestPredictor(t, counters.Basic)
	path := filepath.Join(t.TempDir(), "model.bin")
	if err := os.WriteFile(path, []byte("definitely not a predictor"), 0o644); err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(pred, false)
	if err != nil {
		t.Fatal(err)
	}
	s := New(eng, WithModelPath(path))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("corrupt reload -> %d, want 500", resp.StatusCode)
	}
	if s.Engine() != eng {
		t.Error("engine swapped despite failed reload")
	}
}

// TestConcurrentPredictAndReload hammers predict from many goroutines
// while hot-swapping the model, under -race via scripts/verify.sh. Every
// response must be 200 — zero downtime — and every decision internally
// consistent.
func TestConcurrentPredictAndReload(t *testing.T) {
	pred := trainTestPredictor(t, counters.Basic)
	path := writeModel(t, pred)
	eng, err := NewEngine(pred, false)
	if err != nil {
		t.Fatal(err)
	}
	s := New(eng, WithModelPath(path), WithCacheSize(64), WithMaxInflight(128))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	d := counters.Dim(counters.Basic)
	var wg sync.WaitGroup
	errs := make(chan error, 256)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				body := predictBody(t, d, float64(w%4)/4)
				resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					continue
				}
				data, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("predict -> %d: %s", resp.StatusCode, data)
				}
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				resp, err := http.Post(ts.URL+"/v1/reload", "application/json", nil)
				if err != nil {
					errs <- err
					continue
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("reload -> %d", resp.StatusCode)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestEngineRejectsInvalidPredictor(t *testing.T) {
	if _, err := NewEngine(nil, false); err == nil {
		t.Error("nil predictor accepted")
	}
	bad := &core.Predictor{Set: counters.Basic} // no models
	if _, err := NewEngine(bad, false); err == nil {
		t.Error("incomplete predictor accepted")
	}
}

func TestEnginePredictMatchesCore(t *testing.T) {
	pred := trainTestPredictor(t, counters.Basic)
	quant := pred.Quantize()
	for _, quantized := range []bool{false, true} {
		eng, err := NewEngine(pred, quantized)
		if err != nil {
			t.Fatal(err)
		}
		d := counters.Dim(counters.Basic)
		for trial := 0; trial < 10; trial++ {
			f := make([]float64, d)
			f[trial%d] = 1
			f[d-1] = 1
			got, _ := eng.Predict(f)
			want := pred.Predict(f)
			if quantized {
				want = quant.Predict(f)
			}
			if got != want {
				t.Errorf("quantized=%v: engine decision %v != core decision %v", quantized, got, want)
			}
		}
	}
}
