package serve

import (
	"strconv"

	"repro/internal/obs"
)

// latencyBuckets are the upper bounds (seconds) of the predict-latency
// histogram, Prometheus-style; an implicit +Inf bucket follows.
var latencyBuckets = []float64{
	1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 1e-1, 2.5e-1, 1,
}

// metrics is the server's instrumentation, held in a per-server
// obs.Registry (servers must not share series — tests boot several). All
// counters and the histogram are atomic, so the predict hot path records
// hits, misses, saturation and latency without taking any lock; the one
// remaining lock is the vecs' child lookup (a read lock on a small map).
// The latency histogram is the one latency record a request leaves.
type metrics struct {
	reg           *obs.Registry
	requests      *obs.CounterVec
	latency       *obs.Histogram
	hits          *obs.Counter
	misses        *obs.Counter
	saturated     *obs.Counter
	reloads       *obs.Counter
	classRequests *obs.CounterVec
	shed          *obs.CounterVec
}

// newMetrics builds the server's registry; cacheLen is sampled at
// exposition time for the entries gauge.
func newMetrics(cacheLen func() int) *metrics {
	reg := obs.NewRegistry()
	m := &metrics{
		reg:           reg,
		requests:      reg.CounterVec("adaptd_requests_total", "Requests served, by path and status code.", "path", "code"),
		latency:       reg.Histogram("adaptd_predict_latency_seconds", "Predict handler latency.", latencyBuckets),
		hits:          reg.Counter("adaptd_cache_hits_total", "Predict decisions answered from the LRU cache."),
		misses:        reg.Counter("adaptd_cache_misses_total", "Predict decisions computed by the model."),
		saturated:     reg.Counter("adaptd_saturated_total", "Requests rejected with 429 by the concurrency limiter."),
		reloads:       reg.Counter("adaptd_reloads_total", "Successful predictor hot-swaps."),
		classRequests: reg.CounterVec("adaptd_class_requests_total", "Predict requests received, by admission class.", "class"),
		shed:          reg.CounterVec("adaptd_admission_shed_total", "Predict requests shed by admission control, by class.", "class"),
	}
	reg.GaugeFunc("adaptd_cache_entries", "Current LRU cache entries.", func() float64 {
		return float64(cacheLen())
	})
	return m
}

// observeRequest counts one completed request.
func (m *metrics) observeRequest(path string, code int) {
	m.requests.With(path, strconv.Itoa(code)).Inc()
}

// hitRate returns hits/(hits+misses), 0 before any predict.
func (m *metrics) hitRate() float64 {
	h, mi := m.hits.Value(), m.misses.Value()
	if h+mi == 0 {
		return 0
	}
	return float64(h) / float64(h+mi)
}
