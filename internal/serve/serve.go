// Package serve turns the trained adaptivity predictor into an always-on,
// low-latency inference service: the software analogue of the paper's
// §VIII deployment, where the trained soft-max weights are shipped into
// hardware tables and consulted at every phase change. Here the weights
// are shipped into a daemon (cmd/adaptd) that answers counter-feature
// vectors with predicted 14-parameter configurations over JSON/HTTP.
//
// The server is built for production shapes rather than batch use: an LRU
// decision cache keyed by quantized feature vectors (phases repeat, so
// decisions do too), lock-free engine hot-swap for zero-downtime model
// reload, bounded concurrency with 429 backpressure, per-class admission
// control that sheds the lowest class first under pressure, per-request
// timeouts and body-size limits, and
// Prometheus-text metrics through the shared internal/obs registry (the
// predict hot path records everything with atomic counters — no mutex).
// Stdlib only, like the rest of the repository.
//
// Servers are composed with functional options: serve.New(engine,
// serve.WithCacheSize(4096), serve.WithAdmission(cfg), ...) — the same
// shape as experiment.Build.
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/obs"
)

// Server serves one hot-swappable Engine.
type Server struct {
	opt     options
	engine  atomic.Pointer[Engine]
	cache   *decisionCache
	metrics *metrics
	adm     *admission
	sem     chan struct{}
	start   time.Time
}

// New returns a server for the given engine, configured by options; see
// the With* constructors. The zero-option server uses the defaults
// documented on each option.
func New(e *Engine, opts ...Option) *Server {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	o = o.withDefaults()
	s := &Server{
		opt:   o,
		cache: newDecisionCache(o.cacheSize),
		sem:   make(chan struct{}, o.maxInflight),
		start: time.Now(),
	}
	s.metrics = newMetrics(s.cache.len)
	s.engine.Store(e)
	if o.admission != nil {
		s.adm = newAdmission(*o.admission, o.maxInflight)
	}
	return s
}

// Close is a no-op: a Server starts no goroutine and holds nothing to
// release. Callers defer it so that shutdown stays one call.
func (s *Server) Close() {}

// Engine returns the currently serving engine.
func (s *Server) Engine() *Engine { return s.engine.Load() }

// Swap atomically replaces the serving engine and purges the decision
// cache (the new model's decisions may differ for identical features).
// In-flight requests finish on whichever engine they loaded — zero
// downtime.
func (s *Server) Swap(e *Engine) {
	s.engine.Store(e)
	s.cache.purge()
}

// HitRate returns the decision-cache hit rate so far.
func (s *Server) HitRate() float64 { return s.metrics.hitRate() }

// MetricsText returns the Prometheus exposition served at /metrics: the
// server's own series plus the process-wide obs.DefaultRegistry series
// (simulated instructions, experiment memoisation, phase detections —
// populated when the daemon trained its model in-process).
func (s *Server) MetricsText() string {
	return s.metrics.reg.Text() + obs.DefaultRegistry().Text()
}

// Handler returns the service's HTTP handler: every endpoint, wrapped with
// request accounting and the per-request timeout. With WithDebug the
// introspection endpoints are mounted alongside, outside the timeout.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/predict", s.instrument("/v1/predict", s.handlePredict))
	mux.HandleFunc("/v1/designspace", s.instrument("/v1/designspace", s.handleDesignSpace))
	mux.HandleFunc("/v1/reload", s.instrument("/v1/reload", s.handleReload))
	mux.HandleFunc("/v1/status", s.instrument("/v1/status", s.handleStatus))
	mux.HandleFunc("/healthz", s.instrument("/healthz", s.handleHealthz))
	mux.HandleFunc("/metrics", s.instrument("/metrics", s.handleMetrics))
	h := http.TimeoutHandler(mux, s.opt.timeout, "{\n  \"error\": \"request deadline exceeded\"\n}\n")
	if !s.opt.debug {
		return h
	}
	return s.debugHandler(h)
}

// statusWriter records the status code written by a handler.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with per-(path, status) request counting
// and, when a tracer is attached and enabled, a detached span per request.
func (s *Server) instrument(path string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var sp *obs.Span
		if s.opt.tracer != nil {
			sp = s.opt.tracer.StartDetached("http " + path)
		}
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)
		if sp != nil {
			sp.SetArg("code", strconv.Itoa(sw.code)).Finish()
		}
		s.metrics.observeRequest(path, sw.code)
	}
}

// writeJSON writes v as a JSON response with the given status.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// errorBody is the uniform error payload.
type errorBody struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorBody{Error: fmt.Sprintf(format, args...)})
}

// allowMethod enforces a handler's single allowed method. On a mismatch it
// answers 405 with the uniform JSON error envelope and a correct Allow
// header (RFC 9110 §15.5.6 requires one) — every route shares this path,
// so no handler can drift back to a bare text error.
func allowMethod(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method == method {
		return true
	}
	w.Header().Set("Allow", method)
	writeError(w, http.StatusMethodNotAllowed, "method %s not allowed on %s; use %s", r.Method, r.URL.Path, method)
	return false
}

// PredictRequest is the POST /v1/predict payload: one counter feature
// vector, optionally tagged with the counter set it was built from so the
// server can reject features from the wrong encoding, and with an
// admission class (the X-Request-Class header wins when both are
// present).
type PredictRequest struct {
	Features []float64 `json:"features,omitempty"`
	Set      string    `json:"set,omitempty"`
	Class    string    `json:"class,omitempty"`
}

// PredictResponse is the decision: the predicted configuration (parameter
// name -> Table I value) and, when the request asked for them with
// ?probs=1, the per-parameter soft-max distributions over each parameter's
// domain (they dominate the response size, so they are opt-in).
type PredictResponse struct {
	Config        map[string]int       `json:"config"`
	Probabilities map[string][]float64 `json:"probabilities,omitempty"`
	Set           string               `json:"set"`
	Quantized     bool                 `json:"quantized"`
	Cached        bool                 `json:"cached"`
}

// shedHeader tells shed clients (and the load generator) which class was
// refused, without parsing the error body.
const shedHeader = "X-Adaptd-Shed"

// handlePredict answers one feature vector with a configuration
// decision. The pipeline is: decode, resolve the admission
// class, per-class admission (shed with 429 + X-Adaptd-Shed), the shared
// concurrency semaphore (429 when saturated), then the kernel. Admission
// runs ahead of the semaphore so a shed costs a JSON decode, never a
// slot.
func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	if !allowMethod(w, r, http.MethodPost) {
		return
	}
	started := time.Now()

	var req PredictRequest
	body := http.MaxBytesReader(w, r.Body, s.opt.maxBody)
	if err := decodePredict(body, &req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", s.opt.maxBody)
			return
		}
		writeError(w, http.StatusBadRequest, "malformed JSON: %v", err)
		return
	}
	wantProbs := r.URL.Query().Get("probs") == "1"

	name := r.Header.Get("X-Request-Class")
	if name == "" {
		name = req.Class
	}
	class, ok := ParseClass(name)
	if !ok {
		writeError(w, http.StatusBadRequest, "unknown request class %q (want interactive, batch or background)", name)
		return
	}
	s.metrics.classRequests.With(class.String()).Inc()
	if s.adm != nil {
		if !s.adm.admit(class) {
			s.metrics.shed.With(class.String()).Inc()
			w.Header().Set(shedHeader, class.String())
			writeError(w, http.StatusTooManyRequests, "request class %q shed (inflight-share); retry", class)
			return
		}
		defer s.adm.release(class)
	}
	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	default:
		s.metrics.saturated.Inc()
		writeError(w, http.StatusTooManyRequests, "server saturated (%d predicts in flight); retry", s.opt.maxInflight)
		return
	}

	eng := s.engine.Load()
	if req.Set != "" && req.Set != eng.Set().String() {
		writeError(w, http.StatusBadRequest, "features are from the %q counter set but the model serves %q", req.Set, eng.Set())
		return
	}
	if len(req.Features) != eng.Dim() {
		writeError(w, http.StatusBadRequest, "feature vector has dimension %d, model expects %d (%s counter set)", len(req.Features), eng.Dim(), eng.Set())
		return
	}

	entry, hit := s.resolve(eng, req.Features)
	s.metrics.latency.Observe(time.Since(started).Seconds())
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(s.renderResponse(eng, entry, hit, wantProbs))
}

// resolve answers one feature vector through the decision cache and,
// on a miss, the kernel.
func (s *Server) resolve(eng *Engine, features []float64) (entry *cacheEntry, hit bool) {
	if entry, hit := s.cache.get(cacheKey(features)); hit && entry.eng == eng {
		s.metrics.hits.Inc()
		return entry, true
	}
	cfg, probs := eng.Predict(features)
	entry = &cacheEntry{key: cacheKey(features), eng: eng, config: cfg, probs: probs}
	s.cache.put(entry)
	s.metrics.misses.Inc()
	return entry, false
}

// renderResponse returns the JSON body for one decision — exactly the bytes
// writeJSON would emit. Hit responses (cached:true) are memoised on the
// entry per probs variant, so a hot cache also skips the encoder, not just
// the kernel; miss responses (cached:false, produced once per decision) are
// rendered fresh.
func (s *Server) renderResponse(eng *Engine, entry *cacheEntry, cached, wantProbs bool) []byte {
	variant := 0
	if wantProbs {
		variant = 1
	}
	if cached {
		if b := entry.rendered[variant].Load(); b != nil {
			return *b
		}
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	_ = enc.Encode(s.predictResponse(eng, entry, cached, wantProbs))
	b := buf.Bytes()
	if cached {
		entry.rendered[variant].Store(&b)
	}
	return b
}

// predictResponse renders one decision; probabilities only on request.
func (s *Server) predictResponse(eng *Engine, entry *cacheEntry, cached, wantProbs bool) PredictResponse {
	resp := PredictResponse{
		Config:    map[string]int{},
		Set:       eng.Set().String(),
		Quantized: eng.Quantized(),
		Cached:    cached,
	}
	if wantProbs {
		resp.Probabilities = map[string][]float64{}
	}
	for p := arch.Param(0); p < arch.NumParams; p++ {
		resp.Config[p.String()] = entry.config[p]
		if wantProbs {
			resp.Probabilities[p.String()] = entry.probs[p]
		}
	}
	return resp
}

// DesignSpaceResponse is the GET /v1/designspace payload: Table I.
type DesignSpaceResponse struct {
	Parameters  []ParameterInfo  `json:"parameters"`
	SpacePoints uint64           `json:"spacePoints"`
	CounterSets []CounterSetInfo `json:"counterSets"`
	Model       ModelInfo        `json:"model"`
}

// ParameterInfo describes one Table I row.
type ParameterInfo struct {
	Name   string `json:"name"`
	Values []int  `json:"values"`
}

// CounterSetInfo names a feature encoding and its dimension.
type CounterSetInfo struct {
	Name string `json:"name"`
	Dim  int    `json:"dim"`
}

// ModelInfo describes the serving model. Version is the engine's
// deterministic weight fingerprint (see Engine.Version).
type ModelInfo struct {
	Set       string `json:"set"`
	Dim       int    `json:"dim"`
	Weights   int    `json:"weights"`
	Quantized bool   `json:"quantized"`
	Version   string `json:"version"`
}

// modelInfo renders the one ModelInfo shape every endpoint shares.
func modelInfo(eng *Engine) ModelInfo {
	return ModelInfo{
		Set:       eng.Set().String(),
		Dim:       eng.Dim(),
		Weights:   eng.WeightCount(),
		Quantized: eng.Quantized(),
		Version:   eng.Version(),
	}
}

// handleDesignSpace serves Table I metadata plus the serving model shape.
func (s *Server) handleDesignSpace(w http.ResponseWriter, r *http.Request) {
	if !allowMethod(w, r, http.MethodGet) {
		return
	}
	eng := s.engine.Load()
	resp := DesignSpaceResponse{
		SpacePoints: arch.SpaceSize(),
		CounterSets: []CounterSetInfo{
			{Name: counters.Basic.String(), Dim: counters.Dim(counters.Basic)},
			{Name: counters.Advanced.String(), Dim: counters.Dim(counters.Advanced)},
		},
		Model: modelInfo(eng),
	}
	for p := arch.Param(0); p < arch.NumParams; p++ {
		resp.Parameters = append(resp.Parameters, ParameterInfo{
			Name:   p.String(),
			Values: append([]int(nil), arch.Domain(p)...),
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// ReloadResponse reports a successful hot-swap.
type ReloadResponse struct {
	Reloaded bool      `json:"reloaded"`
	Model    ModelInfo `json:"model"`
}

// handleReload re-reads the model file and swaps it in atomically. The
// quantized mode follows the engine being replaced, so a reload never
// silently changes the weight format.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if !allowMethod(w, r, http.MethodPost) {
		return
	}
	if s.opt.modelPath == "" {
		writeError(w, http.StatusConflict, "server has no -model path; reload disabled")
		return
	}
	f, err := os.Open(s.opt.modelPath)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "opening model file: %v", err)
		return
	}
	defer f.Close()
	pred, err := core.LoadPredictor(f)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "loading model: %v", err)
		return
	}
	eng, err := NewEngine(pred, s.engine.Load().Quantized())
	if err != nil {
		writeError(w, http.StatusInternalServerError, "building engine: %v", err)
		return
	}
	s.Swap(eng)
	s.metrics.reloads.Inc()
	writeJSON(w, http.StatusOK, ReloadResponse{
		Reloaded: true,
		Model:    modelInfo(eng),
	})
}

// HealthResponse is the GET /healthz payload.
type HealthResponse struct {
	Status        string    `json:"status"`
	Model         ModelInfo `json:"model"`
	UptimeSeconds float64   `json:"uptimeSeconds"`
	CacheEntries  int       `json:"cacheEntries"`
	CacheHitRate  float64   `json:"cacheHitRate"`
}

// handleHealthz reports liveness and the serving model.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !allowMethod(w, r, http.MethodGet) {
		return
	}
	eng := s.engine.Load()
	writeJSON(w, http.StatusOK, HealthResponse{
		Status:        "ok",
		Model:         modelInfo(eng),
		UptimeSeconds: time.Since(s.start).Seconds(),
		CacheEntries:  s.cache.len(),
		CacheHitRate:  s.metrics.hitRate(),
	})
}

// handleMetrics serves the Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if !allowMethod(w, r, http.MethodGet) {
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	fmt.Fprint(w, s.MetricsText())
}
