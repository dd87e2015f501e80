package serve

import (
	"net/http"
	"strconv"
)

// StatusResponse is the GET /v1/status payload: the server's counters.
// Unlike /healthz it carries no uptime — every field is either a
// monotonic counter, a gauge or a derived rate, so two status snapshots
// diff cleanly without a wall-clock term. Latency lives in the
// adaptd_predict_latency_seconds histogram on /metrics.
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

// AdmissionStatus is the per-class admission view: one row per class,
// most important first, with per-class request counts even when
// admission control itself is disabled.
type AdmissionStatus struct {
	Enabled bool          `json:"enabled"`
	Classes []ClassStatus `json:"classes"`
}

// ClassStatus is one admission class's counters.
type ClassStatus struct {
	Class    string `json:"class"`
	Requests uint64 `json:"requests"`
	Shed     uint64 `json:"shed"`
	Inflight int64  `json:"inflight"`
}

// handleStatus serves the counter snapshot. Request counts come from the
// same vec /metrics exposes (CounterVec.Each iterates deterministically).
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
	resp.Admission = s.admissionStatus()
	writeJSON(w, http.StatusOK, resp)
}

// admissionStatus assembles the per-class rows, most important class
// first (the reverse of shed order).
func (s *Server) admissionStatus() AdmissionStatus {
	st := AdmissionStatus{Enabled: s.adm != nil}
	shed := map[string]uint64{}
	s.metrics.shed.Each(func(values []string, count uint64) {
		shed[values[0]] += count
	})
	requests := map[string]uint64{}
	s.metrics.classRequests.Each(func(values []string, count uint64) {
		requests[values[0]] += count
	})
	for c := NumClasses; c > 0; {
		c--
		name := c.String()
		row := ClassStatus{Class: name, Requests: requests[name], Shed: shed[name]}
		if s.adm != nil {
			row.Inflight = s.adm.inflightOf(c)
		}
		st.Classes = append(st.Classes, row)
	}
	return st
}
