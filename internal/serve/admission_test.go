package serve

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/counters"
)

func TestParseClass(t *testing.T) {
	cases := []struct {
		in   string
		want Class
		ok   bool
	}{
		{"", ClassInteractive, true},
		{"interactive", ClassInteractive, true},
		{"batch", ClassBatch, true},
		{"background", ClassBackground, true},
		{"BATCH", ClassInteractive, false},
		{"bulk", ClassInteractive, false},
	}
	for _, tc := range cases {
		got, ok := ParseClass(tc.in)
		if got != tc.want || ok != tc.ok {
			t.Errorf("ParseClass(%q) = %v,%v; want %v,%v", tc.in, got, ok, tc.want, tc.ok)
		}
	}
	for c := Class(0); c < NumClasses; c++ {
		rt, ok := ParseClass(c.String())
		if !ok || rt != c {
			t.Errorf("class %d does not round-trip through its name %q", c, c.String())
		}
	}
}

// classedBody builds a predict payload carrying the class in the JSON
// body rather than the header.
func classedBody(t testing.TB, d int, v float64, class string) []byte {
	t.Helper()
	f := make([]float64, d)
	f[0] = v
	f[d-1] = 1
	b, err := json.Marshal(PredictRequest{Features: f, Class: class})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// postClassed POSTs a predict with an X-Request-Class header.
func postClassed(t testing.TB, url string, body []byte, class string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/predict", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if class != "" {
		req.Header.Set("X-Request-Class", class)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

func TestAdmissionInvalidClassRejected(t *testing.T) {
	_, ts := newTestServer(t, WithAdmission(DefaultAdmissionConfig()))
	d := counters.Dim(counters.Basic)
	if resp := postClassed(t, ts.URL, predictBody(t, d, 1), "bulk"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown header class -> %d, want 400", resp.StatusCode)
	}
	resp, data := postPredict(t, ts, classedBody(t, d, 1, "bulk"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown payload class -> %d, want 400: %s", resp.StatusCode, data)
	}
}

// TestAdmissionShareCapProtectsInteractive pins the headroom guarantee:
// with background capped at half the in-flight slots, a fully parked
// background load can never make the semaphore 429 an admitted interactive
// request. The shed is counted per class on /metrics and /v1/status,
// whose class rows come most important first.
func TestAdmissionShareCapProtectsInteractive(t *testing.T) {
	s, ts := newTestServer(t, WithAdmission(DefaultAdmissionConfig()), WithMaxInflight(4))
	// Park two background requests: occupy their admitted inflight share
	// and the semaphore slots they would hold inside the handler.
	bg := &s.adm.classes[ClassBackground]
	if bg.capInflight != 2 {
		t.Fatalf("background capInflight = %d, want 2 (0.5 * 4)", bg.capInflight)
	}
	bg.inflight.Add(2)
	s.sem <- struct{}{}
	s.sem <- struct{}{}
	defer func() { bg.inflight.Add(-2); <-s.sem; <-s.sem }()

	d := counters.Dim(counters.Basic)
	body := predictBody(t, d, 1)
	resp := postClassed(t, ts.URL, body, "background")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("background over its share -> %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get(shedHeader); got != "background" {
		t.Errorf("shed header = %q, want background", got)
	}
	// Background's full share sheds only background: the next rung up is
	// admitted.
	if got := s.adm.classes[ClassBatch].capInflight; got != 3 {
		t.Errorf("batch capInflight = %d, want 3 (0.75 * 4)", got)
	}
	if resp := postClassed(t, ts.URL, body, "batch"); resp.StatusCode != http.StatusOK {
		t.Errorf("batch with background parked -> %d, want 200", resp.StatusCode)
	}
	// The two slots background cannot take keep interactive admissible.
	for i := 0; i < 4; i++ {
		if resp := postClassed(t, ts.URL, body, "interactive"); resp.StatusCode != http.StatusOK {
			t.Fatalf("interactive with background parked -> %d, want 200", resp.StatusCode)
		}
	}
	if s.metrics.saturated.Value() != 0 {
		t.Error("semaphore 429'd an admitted request despite the share cap")
	}
	if !strings.Contains(s.MetricsText(), `adaptd_admission_shed_total{class="background"} 1`) {
		t.Error("shed not counted per class in metrics")
	}

	sr := getStatus(t, ts.URL)
	if !sr.Admission.Enabled {
		t.Errorf("admission status = %+v", sr.Admission)
	}
	rows := map[string]ClassStatus{}
	for _, c := range sr.Admission.Classes {
		rows[c.Class] = c
	}
	if rows["background"].Shed != 1 || rows["background"].Inflight != 2 {
		t.Errorf("background row = %+v, want 1 shed and 2 parked", rows["background"])
	}
	if rows["batch"].Shed != 0 || rows["interactive"].Shed != 0 {
		t.Errorf("higher classes shed: batch=%+v interactive=%+v", rows["batch"], rows["interactive"])
	}
	if rows["interactive"].Requests != 4 {
		t.Errorf("interactive row = %+v, want 4 requests", rows["interactive"])
	}
	if sr.Admission.Classes[0].Class != "interactive" || sr.Admission.Classes[2].Class != "background" {
		t.Errorf("class rows not in importance order: %+v", sr.Admission.Classes)
	}
}

// TestAdmissionDisabledByDefault: without WithAdmission nothing sheds and
// the status section says so (class request rows still render).
func TestAdmissionDisabledByDefault(t *testing.T) {
	_, ts := newTestServer(t)
	d := counters.Dim(counters.Basic)
	for _, class := range []string{"background", "batch", "interactive"} {
		if resp := postClassed(t, ts.URL, predictBody(t, d, 1), class); resp.StatusCode != http.StatusOK {
			t.Errorf("class %q without admission -> %d, want 200", class, resp.StatusCode)
		}
	}
	sr := getStatus(t, ts.URL)
	if sr.Admission.Enabled {
		t.Error("admission reported enabled without WithAdmission")
	}
	if len(sr.Admission.Classes) != int(NumClasses) {
		t.Fatalf("%d class rows, want %d", len(sr.Admission.Classes), NumClasses)
	}
	for _, c := range sr.Admission.Classes {
		if c.Requests != 1 || c.Shed != 0 {
			t.Errorf("class row %+v, want 1 request / 0 shed", c)
		}
	}
}

// TestLoadGenCountsShedSeparately drives the open loop, at a rate far
// below the server's limits, against a server whose background in-flight
// share is parked full: only background sheds, and its 429s land in Shed
// (the X-Adaptd-Shed header distinguishes them), never in Rejected.
func TestLoadGenCountsShedSeparately(t *testing.T) {
	s, ts := newTestServer(t, WithAdmission(DefaultAdmissionConfig()), WithCacheSize(64), WithMaxInflight(32))
	bg := &s.adm.classes[ClassBackground]
	bg.inflight.Add(bg.capInflight)
	defer bg.inflight.Add(-bg.capInflight)
	lg := LoadGen{
		Requests: 90,
		Seed:     7,
		Pool:     SyntheticFeatures(counters.Dim(counters.Basic), 8, 7),
		Mode:     "open",
		RPS:      500,
	}
	rep, err := lg.Run(ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Shed == 0 || rep.Rejected != 0 {
		t.Fatalf("shed=%d rejected=%d, want shed>0 rejected=0", rep.Shed, rep.Rejected)
	}
	if rep.OK+rep.Shed != rep.Requests {
		t.Errorf("ok=%d shed=%d requests=%d do not add up", rep.OK, rep.Shed, rep.Requests)
	}
	for _, c := range rep.Classes {
		switch c.Class {
		case "background":
			if c.Shed != c.Requests || c.OK != 0 {
				t.Errorf("background row %+v, want all shed", c)
			}
		default:
			if c.Shed != 0 || c.OK != c.Requests {
				t.Errorf("%s row %+v, want all ok", c.Class, c)
			}
		}
	}
	if !strings.Contains(rep.String(), "shed=") {
		t.Error("report string does not mention shed")
	}
}
