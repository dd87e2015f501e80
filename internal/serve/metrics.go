package serve

import (
	"strconv"
	"time"

	"repro/internal/obs"
)

// slo* shape the per-route windowed latency histograms behind /v1/status:
// 1 microsecond to 10 seconds with 16 linear sub-buckets per power of two
// (<= 6.25% relative quantile error), quantiles read over roughly the
// last minute of traffic (4 rotating 15s sub-windows).
const (
	sloMinLatency = 1e-6
	sloMaxLatency = 10.0
	sloSubBuckets = 16
	sloWindow     = time.Minute
	sloSlots      = 4
)

// routePaths are the instrumented endpoints, in the order /v1/status
// reports them.
var routePaths = []string{
	"/healthz", "/metrics", "/v1/designspace", "/v1/predict", "/v1/reload", "/v1/status",
}

// latencyBuckets are the upper bounds (seconds) of the predict-latency
// histogram, Prometheus-style; an implicit +Inf bucket follows.
var latencyBuckets = []float64{
	1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 1e-1, 2.5e-1, 1,
}

// batchSizeBuckets are the upper bounds of the kernel batch-size
// histogram: powers of two, so the exposition shows how many cache misses
// each batch request amortises into one kernel call.
var batchSizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// metrics is the server's instrumentation, held in a per-server
// obs.Registry (servers must not share series — tests boot several). All
// counters and the histogram are atomic, so the predict hot path records
// hits, misses, saturation and latency without taking any lock; the one
// remaining lock is the request vec's child lookup (a read lock on a
// small map). PR 1's hand-rolled map+mutex version took the mutex twice
// per predict.
type metrics struct {
	reg           *obs.Registry
	requests      *obs.CounterVec
	latency       *obs.Histogram
	hits          *obs.Counter
	misses        *obs.Counter
	saturated     *obs.Counter
	reloads       *obs.Counter
	batchSize     *obs.Histogram
	batches       *obs.Counter
	batchRequests *obs.Counter
	batchItems    *obs.Counter
	classRequests *obs.CounterVec
	shed          *obs.CounterVec

	// routeLat holds one windowed latency histogram per known route —
	// built once at construction, so the request path reads a plain map
	// with no locking. Unknown paths (the debug mux) are simply not
	// windowed; they still count in the request vec.
	routeLat map[string]*obs.WindowedHistogram
	// classLat windows admitted predict latency per admission class, so
	// /v1/status can show what each class is served at while lower
	// classes shed.
	classLat [NumClasses]*obs.WindowedHistogram
}

// newMetrics builds the server's registry; cacheLen is sampled at
// exposition time for the entries gauge.
func newMetrics(cacheLen func() int) *metrics {
	reg := obs.NewRegistry()
	m := &metrics{
		reg:       reg,
		requests:  reg.CounterVec("adaptd_requests_total", "Requests served, by path and status code.", "path", "code"),
		latency:   reg.Histogram("adaptd_predict_latency_seconds", "Predict handler latency.", latencyBuckets),
		hits:      reg.Counter("adaptd_cache_hits_total", "Predict decisions answered from the LRU cache."),
		misses:    reg.Counter("adaptd_cache_misses_total", "Predict decisions computed by the model."),
		saturated: reg.Counter("adaptd_saturated_total", "Requests rejected with 429 by the concurrency limiter."),
		reloads:   reg.Counter("adaptd_reloads_total", "Successful predictor hot-swaps."),
		batchSize: reg.Histogram("adaptd_batch_size",
			"Feature vectors evaluated per batched kernel call (the cache misses of one batch request).", batchSizeBuckets),
		batches:       reg.Counter("adaptd_batches_total", "Batched kernel calls."),
		batchRequests: reg.Counter("adaptd_batch_requests_total", "Predict requests that carried a batch payload."),
		batchItems:    reg.Counter("adaptd_batch_items_total", "Feature vectors received inside batch payloads."),
		classRequests: reg.CounterVec("adaptd_class_requests_total", "Predict requests received, by admission class.", "class"),
		shed:          reg.CounterVec("adaptd_admission_shed_total", "Predict requests shed by admission control, by class and reason.", "class", "reason"),
	}
	reg.GaugeFunc("adaptd_cache_entries", "Current LRU cache entries.", func() float64 {
		return float64(cacheLen())
	})
	m.routeLat = make(map[string]*obs.WindowedHistogram, len(routePaths))
	for _, p := range routePaths {
		m.routeLat[p] = obs.NewWindowedHistogram(sloMinLatency, sloMaxLatency, sloSubBuckets, sloWindow, sloSlots)
	}
	for c := Class(0); c < NumClasses; c++ {
		m.classLat[c] = obs.NewWindowedHistogram(sloMinLatency, sloMaxLatency, sloSubBuckets, sloWindow, sloSlots)
	}
	return m
}

// observeLatency records one request's wall-clock seconds against its
// route's windowed histogram.
func (m *metrics) observeLatency(path string, seconds float64) {
	if h := m.routeLat[path]; h != nil {
		h.Observe(seconds)
	}
}

// observeRequest counts one completed request.
func (m *metrics) observeRequest(path string, code int) {
	m.requests.With(path, strconv.Itoa(code)).Inc()
}

// observeClassLatency records one admitted predict's wall-clock seconds
// against its admission class.
func (m *metrics) observeClassLatency(c Class, seconds float64) {
	m.classLat[c].Observe(seconds)
}

// hitRate returns hits/(hits+misses), 0 before any predict.
func (m *metrics) hitRate() float64 {
	h, mi := m.hits.Value(), m.misses.Value()
	if h+mi == 0 {
		return 0
	}
	return float64(h) / float64(h+mi)
}
