package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/counters"
)

// TestPredictErrorEnvelopeParity pins the exact status and body the
// encoding/json decoder produced for bodies that are malformed, that
// decode but fail validation, or that cross WithMaxBody — recorded before
// the predict decoder gained its fast path, which must reproduce each.
func TestPredictErrorEnvelopeParity(t *testing.T) {
	_, ts := newTestServer(t, WithMaxBody(256))
	envelope := func(msg string) string {
		b, _ := json.MarshalIndent(errorBody{Error: msg}, "", "  ")
		return string(b) + "\n"
	}
	dim := func(n int) string {
		return envelope(fmt.Sprintf("feature vector has dimension %d, model expects 16 (basic counter set)", n))
	}
	complete := `{"features": [1, 2]}`
	for _, tc := range []struct {
		body string
		code int
		want string
	}{
		{``, 400, envelope("malformed JSON: EOF")},
		{`   `, 400, envelope("malformed JSON: EOF")},
		{`{broken`, 400, envelope("malformed JSON: invalid character 'b' looking for beginning of object key string")},
		{`{"features": [1, 2,`, 400, envelope("malformed JSON: unexpected EOF")},
		{`{"features": [01]}`, 400, envelope("malformed JSON: invalid character '1' after array element")},
		{`{"features": [1e999]}`, 400, envelope("malformed JSON: json: cannot unmarshal number 1e999 into Go struct field PredictRequest.features of type float64")},
		{`{"features": [-1e999, 1e999]}`, 400, envelope("malformed JSON: json: cannot unmarshal number -1e999 into Go struct field PredictRequest.features of type float64")},
		{`{"features": "x"}`, 400, envelope("malformed JSON: json: cannot unmarshal string into Go struct field PredictRequest.features of type []float64")},
		{`[1, 2]`, 400, envelope("malformed JSON: json: cannot unmarshal array into Go value of type serve.PredictRequest")},
		{`{"features": [NaN]}`, 400, envelope("malformed JSON: invalid character 'N' looking for beginning of value")},
		{`{"features": [1,]}`, 400, envelope("malformed JSON: invalid character ']' looking for beginning of value")},
		{`{"features": [.5]}`, 400, envelope("malformed JSON: invalid character '.' looking for beginning of value")},
		{`{"features": [+1]}`, 400, envelope("malformed JSON: invalid character '+' looking for beginning of value")},
		{`{"features": [1, 2]}}`, 400, dim(2)},
		{`{"features": [1], "features": [1, 2]}`, 400, dim(2)},
		{`{"Features": [1, 2, 3]}`, 400, dim(3)},
		// "batch" is not a request field: encoding/json skips it.
		{`{"features": null, "batch": [[1], null]}`, 400, dim(0)},
		{`{"set": "advanced", "features": [1]}`, 400, envelope(`features are from the "advanced" counter set but the model serves "basic"`)},
		{`{"features": [1], "batch": [[1]]}`, 400, dim(1)},
		{`{"batch": []}`, 400, dim(0)},
		{`{"features": [1], "class": "vip"}`, 400, envelope(`unknown request class "vip" (want interactive, batch or background)`)},
		{`{"features": [1], "set": 7}`, 400, envelope("malformed JSON: json: cannot unmarshal number into Go struct field PredictRequest.set of type string")},
		{`null`, 400, dim(0)},
		{"\xef\xbb\xbf{}", 400, envelope("malformed JSON: invalid character 'ï' looking for beginning of value")},
		// Truncated past the limit: the size error wins.
		{`{"features": [` + strings.Repeat("0.5, ", 60), 413, envelope("request body exceeds 256 bytes")},
		// The first value completes within the limit; what follows it is
		// never looked at, so the limit does not trigger.
		{complete + strings.Repeat(" ", 300), 400, dim(2)},
		{complete + strings.Repeat("x", 300), 400, dim(2)},
	} {
		resp, data := postPredict(t, ts, []byte(tc.body))
		if resp.StatusCode != tc.code || string(data) != tc.want {
			t.Errorf("body %.40q: got %d %q, want %d %q", tc.body, resp.StatusCode, data, tc.code, tc.want)
		}
	}
}

// TestDecodePredictFastPath checks that canonical request bodies — what
// json.Marshal and the load generator send — take the reflection-free
// path rather than falling back to encoding/json.
func TestDecodePredictFastPath(t *testing.T) {
	vecs := SyntheticFeatures(counters.Dim(counters.Advanced), 1, 7)
	var d predictDecoder
	for _, req := range []PredictRequest{
		{},
		{Features: vecs[0], Set: "advanced", Class: "batch"},
		{Features: []float64{-0.0, 1e-300, 5e-324, math.MaxFloat64, -1}},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := d.scan(body)
		if !ok {
			t.Errorf("fast path refused %.60s", body)
			continue
		}
		if diff := diffPredict(req, got); diff != "" {
			t.Errorf("fast path decoded %.60s wrongly: %s", body, diff)
		}
	}
	pretty := []byte("\r\n\t{ \"features\" : [ 1 , -2.5E+3 ] ,\n\"class\":\"interactive\" } trailing")
	if got, ok := d.scan(pretty); !ok || got.Class != "interactive" || len(got.Features) != 2 || got.Features[1] != -2500 {
		t.Errorf("fast path on whitespace-rich body: %+v, %v", got, ok)
	}
}

// TestParseFloatMatchesStrconv holds parseFloat to strconv.ParseFloat,
// bit for bit, on literals on both sides of its fast path: up to 20
// integer and 25 fraction digits, runs of zeros, signs and exponents.
func TestParseFloatMatchesStrconv(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 8))
	digits := func(n int) string {
		var sb strings.Builder
		for i := 0; i < n; i++ {
			if rng.IntN(4) == 0 {
				sb.WriteByte('0')
			} else {
				sb.WriteByte(byte('0' + rng.IntN(10)))
			}
		}
		return sb.String()
	}
	for i := 0; i < 200000; i++ {
		lit := ""
		if rng.IntN(2) == 0 {
			lit = "-"
		}
		if n := rng.IntN(21); n == 0 {
			lit += "0"
		} else {
			lit += string(byte('1'+rng.IntN(9))) + digits(n-1)
		}
		if rng.IntN(4) != 0 {
			lit += "." + string(byte('0'+rng.IntN(10))) + digits(rng.IntN(25))
		}
		if rng.IntN(8) == 0 {
			lit += fmt.Sprintf("e%d", rng.IntN(60)-30)
		}
		if scanNumber([]byte(lit), 0) != len(lit) {
			t.Fatalf("generated %q, which is not a JSON number", lit)
		}
		want, wantErr := strconv.ParseFloat(lit, 64)
		got, err := parseFloat([]byte(lit))
		if math.Float64bits(got) != math.Float64bits(want) || (err == nil) != (wantErr == nil) {
			t.Fatalf("parseFloat(%q) = %v, %v; strconv says %v, %v", lit, got, err, want, wantErr)
		}
	}
}

// TestDecodedRequestOwnsItsFeatures decodes distinct bodies back to back,
// so later decodes reuse the pooled decoder's buffer and float scratch
// while the earlier results are still held — as a handler holds its
// request after decodePredict has returned the decoder to the pool. Each
// result must still hold exactly the vector its body carried; the
// vectors shrink, so a later, shorter one would overwrite only a prefix
// of an aliased earlier one.
func TestDecodedRequestOwnsItsFeatures(t *testing.T) {
	vecs := SyntheticFeatures(counters.Dim(counters.Basic), 8, 3)
	var want, got []PredictRequest
	for i, v := range vecs {
		req := PredictRequest{Features: v[:len(v)-i]}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		var dec PredictRequest
		if err := decodePredict(bytes.NewReader(body), &dec); err != nil {
			t.Fatal(err)
		}
		want, got = append(want, req), append(got, dec)
	}
	for i := range want {
		if diff := diffPredict(want[i], got[i]); diff != "" {
			t.Errorf("request %d changed after later decodes: %s", i, diff)
		}
	}
}

// diffPredict names the first difference between two decoded requests, or
// returns "": floats compare by bit pattern (so -0 and 0 differ) and nil
// and empty slices are told apart.
func diffPredict(a, b PredictRequest) string {
	if a.Set != b.Set || a.Class != b.Class {
		return fmt.Sprintf("set/class %q/%q vs %q/%q", a.Set, a.Class, b.Set, b.Class)
	}
	if diff := diffFloats(a.Features, b.Features); diff != "" {
		return "features: " + diff
	}
	return ""
}

func diffFloats(a, b []float64) string {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return fmt.Sprintf("nil %v len %d vs nil %v len %d", a == nil, len(a), b == nil, len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return fmt.Sprintf("[%d] %v vs %v", i, a[i], b[i])
		}
	}
	return ""
}

// BenchmarkPredictHit times one advanced-set single-vector request
// answered from the decision cache, through the full handler stack.
func BenchmarkPredictHit(b *testing.B) {
	eng, err := NewEngine(trainTestPredictor(b, counters.Advanced), false)
	if err != nil {
		b.Fatal(err)
	}
	s := New(eng, WithCacheSize(16))
	b.Cleanup(s.Close)
	h := s.Handler()
	body, err := json.Marshal(PredictRequest{Features: SyntheticFeatures(counters.Dim(counters.Advanced), 1, 1)[0]})
	if err != nil {
		b.Fatal(err)
	}
	serve := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body)))
		return rec
	}
	serve()
	if rec := serve(); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"cached": true`) {
		b.Fatalf("warm request was not a cache hit: %d %s", rec.Code, rec.Body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rec := serve(); rec.Code != http.StatusOK {
			b.Fatalf("status %d", rec.Code)
		}
	}
}
