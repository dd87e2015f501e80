package serve

import (
	"net/http"
	"strconv"
)

// StatusResponse is the GET /v1/status payload: the SLO view of the
// server. Unlike /healthz it carries no uptime — every field is either a
// monotonic counter, a derived rate, or a windowed latency quantile, so
// two status snapshots diff cleanly without a wall-clock term.
type StatusResponse struct {
	Status   string         `json:"status"`
	Model    ModelInfo      `json:"model"`
	Requests []RequestCount `json:"requests"`
	// ErrorRate is the share of requests answered 4xx/5xx; ServerErrorRate
	// counts 5xx only.
	ErrorRate       float64         `json:"errorRate"`
	ServerErrorRate float64         `json:"serverErrorRate"`
	Saturated       uint64          `json:"saturated"`
	Reloads         uint64          `json:"reloads"`
	Cache           CacheStatus     `json:"cache"`
	Batch           BatchStatus     `json:"batch"`
	Latency         []RouteLatency  `json:"latency"`
	Admission       AdmissionStatus `json:"admission"`
}

// RequestCount is one (path, status code) request counter.
type RequestCount struct {
	Path  string `json:"path"`
	Code  string `json:"code"`
	Count uint64 `json:"count"`
}

// CacheStatus summarises the LRU decision cache.
type CacheStatus struct {
	Entries int     `json:"entries"`
	Hits    uint64  `json:"hits"`
	Misses  uint64  `json:"misses"`
	HitRate float64 `json:"hitRate"`
}

// BatchStatus summarises batch payloads and batched kernel calls.
type BatchStatus struct {
	Requests uint64 `json:"requests"`
	Items    uint64 `json:"items"`
	Kernels  uint64 `json:"kernels"`
}

// RouteLatency is one route's windowed latency quantiles (seconds, over
// roughly the last minute of traffic) plus its window and lifetime counts.
type RouteLatency struct {
	Path        string  `json:"path"`
	WindowCount uint64  `json:"windowCount"`
	TotalCount  uint64  `json:"totalCount"`
	P50Seconds  float64 `json:"p50Seconds"`
	P99Seconds  float64 `json:"p99Seconds"`
	P999Seconds float64 `json:"p999Seconds"`
}

// AdmissionStatus is the per-class admission view: one row per class in
// shed order (most important first), with per-class windowed latency even
// when admission control itself is disabled.
type AdmissionStatus struct {
	Enabled bool          `json:"enabled"`
	Classes []ClassStatus `json:"classes"`
}

// ClassStatus is one admission class's counters and windowed latency.
type ClassStatus struct {
	Class       string            `json:"class"`
	Requests    uint64            `json:"requests"`
	Shed        uint64            `json:"shed"`
	ShedByCause map[string]uint64 `json:"shedByCause,omitempty"`
	Inflight    int64             `json:"inflight"`
	WindowCount uint64            `json:"windowCount"`
	TotalCount  uint64            `json:"totalCount"`
	P50Seconds  float64           `json:"p50Seconds"`
	P99Seconds  float64           `json:"p99Seconds"`
}

// handleStatus serves the SLO snapshot. Request counts come from the same
// vec /metrics exposes (CounterVec.Each iterates deterministically), and
// each route's three quantiles are read from one consistent histogram
// snapshot so a p50/p99/p999 row can never be torn.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if !allowMethod(w, r, http.MethodGet) {
		return
	}
	resp := StatusResponse{
		Status:    "ok",
		Model:     modelInfo(s.engine.Load()),
		Saturated: s.metrics.saturated.Value(),
		Reloads:   s.metrics.reloads.Value(),
		Cache: CacheStatus{
			Entries: s.cache.len(),
			Hits:    s.metrics.hits.Value(),
			Misses:  s.metrics.misses.Value(),
			HitRate: s.metrics.hitRate(),
		},
		Batch: BatchStatus{
			Requests: s.metrics.batchRequests.Value(),
			Items:    s.metrics.batchItems.Value(),
			Kernels:  s.metrics.batches.Value(),
		},
	}
	var total, errs, serverErrs uint64
	s.metrics.requests.Each(func(values []string, count uint64) {
		resp.Requests = append(resp.Requests, RequestCount{Path: values[0], Code: values[1], Count: count})
		total += count
		if code, err := strconv.Atoi(values[1]); err == nil {
			if code >= 400 {
				errs += count
			}
			if code >= 500 {
				serverErrs += count
			}
		}
	})
	if total > 0 {
		resp.ErrorRate = float64(errs) / float64(total)
		resp.ServerErrorRate = float64(serverErrs) / float64(total)
	}
	for _, path := range routePaths {
		h := s.metrics.routeLat[path]
		qs := h.Quantiles(0.5, 0.99, 0.999)
		resp.Latency = append(resp.Latency, RouteLatency{
			Path:        path,
			WindowCount: h.Count(),
			TotalCount:  h.TotalCount(),
			P50Seconds:  qs[0],
			P99Seconds:  qs[1],
			P999Seconds: qs[2],
		})
	}
	resp.Admission = s.admissionStatus()
	writeJSON(w, http.StatusOK, resp)
}

// admissionStatus assembles the per-class rows, most important class
// first (the reverse of shed order).
func (s *Server) admissionStatus() AdmissionStatus {
	st := AdmissionStatus{Enabled: s.adm != nil}
	shed := map[string]map[string]uint64{}
	s.metrics.shed.Each(func(values []string, count uint64) {
		byCause := shed[values[0]]
		if byCause == nil {
			byCause = map[string]uint64{}
			shed[values[0]] = byCause
		}
		byCause[values[1]] += count
	})
	requests := map[string]uint64{}
	s.metrics.classRequests.Each(func(values []string, count uint64) {
		requests[values[0]] += count
	})
	for c := NumClasses; c > 0; {
		c--
		name := c.String()
		h := s.metrics.classLat[c]
		qs := h.Quantiles(0.5, 0.99)
		row := ClassStatus{
			Class:       name,
			Requests:    requests[name],
			ShedByCause: shed[name],
			WindowCount: h.Count(),
			TotalCount:  h.TotalCount(),
			P50Seconds:  qs[0],
			P99Seconds:  qs[1],
		}
		for _, n := range row.ShedByCause {
			row.Shed += n
		}
		if s.adm != nil {
			row.Inflight = s.adm.inflightOf(c)
		}
		st.Classes = append(st.Classes, row)
	}
	return st
}
