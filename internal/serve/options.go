package serve

import (
	"time"

	"repro/internal/obs"
)

// options is the server's resolved configuration. It is private: callers
// compose a Server with New(engine, ...Option), the same functional-option
// shape as experiment.Build — the positional Config struct this replaced
// could not grow admission control without every caller churning.
type options struct {
	// modelPath is the predictor file re-read by POST /v1/reload; empty
	// disables reload.
	modelPath string
	// cacheSize is the LRU decision-cache capacity; <= 0 disables it.
	cacheSize int
	// maxBody is the request-body byte limit (default 1 MiB).
	maxBody int64
	// timeout is the per-request handler deadline (default 5s).
	timeout time.Duration
	// maxInflight bounds concurrent predict requests; excess requests are
	// rejected with 429 (default 64).
	maxInflight int
	// debug mounts the introspection endpoints (see WithDebug).
	debug bool
	// tracer, when non-nil, records one detached span per request.
	tracer *obs.Tracer
	// admission enables per-class admission control (see WithAdmission).
	admission *AdmissionConfig
}

// Option configures a Server. The zero configuration (no options) is a
// plain server with defaults: 1 MiB bodies, 5s timeout, 64 in-flight,
// no cache, no admission control.
type Option func(*options)

// withDefaults fills unset fields.
func (o options) withDefaults() options {
	if o.maxBody <= 0 {
		o.maxBody = 1 << 20
	}
	if o.timeout <= 0 {
		o.timeout = 5 * time.Second
	}
	if o.maxInflight <= 0 {
		o.maxInflight = 64
	}
	return o
}

// WithModelPath names the predictor file POST /v1/reload re-reads; without
// it reload answers 409.
func WithModelPath(path string) Option {
	return func(o *options) { o.modelPath = path }
}

// WithCacheSize bounds the LRU decision cache; n <= 0 disables caching.
func WithCacheSize(n int) Option {
	return func(o *options) { o.cacheSize = n }
}

// WithMaxBody sets the request-body byte limit (default 1 MiB).
func WithMaxBody(n int64) Option {
	return func(o *options) { o.maxBody = n }
}

// WithTimeout sets the per-request handler deadline (default 5s).
func WithTimeout(d time.Duration) Option {
	return func(o *options) { o.timeout = d }
}

// WithMaxInflight bounds concurrent predict requests; excess requests are
// rejected with 429 (default 64).
func WithMaxInflight(n int) Option {
	return func(o *options) { o.maxInflight = n }
}

// WithDebug mounts the introspection endpoints on the handler: pprof
// under /debug/pprof/, an expvar-style metrics snapshot at /debug/vars,
// and (with a Tracer attached) a Chrome trace_event snapshot at
// /debug/trace. The debug mux bypasses the per-request timeout because
// CPU profiles run for tens of seconds.
func WithDebug() Option {
	return func(o *options) { o.debug = true }
}

// WithTracer records one detached span per request (only while the tracer
// is enabled) and backs /debug/trace.
func WithTracer(tr *obs.Tracer) Option {
	return func(o *options) { o.tracer = tr }
}

// WithAdmission enables per-class admission control ahead of the
// concurrency semaphore: each request carries a Class (X-Request-Class
// header or the payload's "class" field, interactive by default) and is
// admitted only while its class holds fewer than its share of the
// in-flight slots. See AdmissionConfig.
func WithAdmission(cfg AdmissionConfig) Option {
	return func(o *options) { o.admission = &cfg }
}
