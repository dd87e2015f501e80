package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"testing"

	"repro/internal/counters"
)

// getStatus fetches and decodes /v1/status.
func getStatus(t *testing.T, url string) StatusResponse {
	t.Helper()
	resp, err := http.Get(url + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var sr StatusResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatalf("invalid status JSON %s: %v", data, err)
	}
	return sr
}

// TestStatusEndpoint drives traffic (good and bad) through the server and
// asserts /v1/status reports counts, error rates, cache stats and the
// model fingerprint.
func TestStatusEndpoint(t *testing.T) {
	s, ts := newTestServer(t, WithCacheSize(16))
	d := counters.Dim(counters.Basic)
	for i := 0; i < 3; i++ {
		resp, _ := postPredict(t, ts, predictBody(t, d, 1)) // 1 miss + 2 hits
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("predict status %d", resp.StatusCode)
		}
	}
	if resp, _ := postPredict(t, ts, []byte("{broken")); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed predict status %d, want 400", resp.StatusCode)
	}

	sr := getStatus(t, ts.URL)
	if sr.Status != "ok" {
		t.Errorf("status = %q", sr.Status)
	}
	if sr.Model.Version == "" || sr.Model.Version != s.Engine().Version() {
		t.Errorf("model version %q, engine says %q", sr.Model.Version, s.Engine().Version())
	}
	counts := map[string]uint64{}
	for _, rc := range sr.Requests {
		counts[rc.Path+" "+rc.Code] += rc.Count
	}
	if counts["/v1/predict 200"] != 3 || counts["/v1/predict 400"] != 1 {
		t.Errorf("request counts = %v", counts)
	}
	// 1 error out of 4 requests at snapshot time (the in-flight status
	// request itself is not yet counted).
	if sr.ErrorRate != 0.25 || sr.ServerErrorRate != 0 {
		t.Errorf("errorRate = %g serverErrorRate = %g, want 0.25/0", sr.ErrorRate, sr.ServerErrorRate)
	}
	if sr.Cache.Hits != 2 || sr.Cache.Misses != 1 || sr.Cache.Entries != 1 {
		t.Errorf("cache = %+v, want 2 hits / 1 miss / 1 entry", sr.Cache)
	}

	// The status request itself shows up on the next snapshot.
	sr2 := getStatus(t, ts.URL)
	counts2 := map[string]uint64{}
	for _, rc := range sr2.Requests {
		counts2[rc.Path+" "+rc.Code] += rc.Count
	}
	if counts2["/v1/status 200"] != 1 {
		t.Errorf("status request not counted: %v", counts2)
	}
}

// TestEngineVersionDeterministic asserts the fingerprint is a pure
// function of the weights and flags the quantized mode.
func TestEngineVersionDeterministic(t *testing.T) {
	pred := trainTestPredictor(t, counters.Basic)
	e1, err := NewEngine(pred, false)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := NewEngine(pred, false)
	if err != nil {
		t.Fatal(err)
	}
	if e1.Version() == "" || e1.Version() != e2.Version() {
		t.Errorf("versions differ for identical weights: %q vs %q", e1.Version(), e2.Version())
	}
	q, err := NewEngine(pred, true)
	if err != nil {
		t.Fatal(err)
	}
	if q.Version() != e1.Version()+"-q8" {
		t.Errorf("quantized version = %q, want %q", q.Version(), e1.Version()+"-q8")
	}
	other, err := NewEngine(trainTestPredictor(t, counters.Advanced), false)
	if err != nil {
		t.Fatal(err)
	}
	if other.Version() == e1.Version() {
		t.Error("different models share a version fingerprint")
	}
}
