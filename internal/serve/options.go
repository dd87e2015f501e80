package serve

import (
	"time"

	"repro/internal/obs"
)

// options is the server's resolved configuration. It is private: callers
// compose a Server with New(engine, ...Option), the same functional-option
// shape as experiment.Build — the positional Config struct this replaced
// could not grow admission control and shadow models without every caller
// churning.
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
	// shadow is the candidate engine evaluated off the request path (see
	// WithShadow); shadowSource names where it was loaded from.
	shadow       *Engine
	shadowSource string
	// shadowQueue bounds the shadow duplication queue (default 1024).
	shadowQueue int
	// activeSource names where the active engine was loaded from; shown on
	// GET /v1/models. Defaults to modelPath.
	activeSource string
}

// Option configures a Server. The zero configuration (no options) is a
// plain server with defaults: 1 MiB bodies, 5s timeout, 64 in-flight,
// no cache, no admission control, no shadow.
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
	if o.shadowQueue <= 0 {
		o.shadowQueue = 1024
	}
	if o.activeSource == "" {
		o.activeSource = o.modelPath
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
// admitted through its class's token bucket, in-flight share cap and
// SLO-shedding threshold. See AdmissionConfig.
func WithAdmission(cfg AdmissionConfig) Option {
	return func(o *options) { o.admission = &cfg }
}

// WithShadow loads a candidate engine that serves duplicated traffic
// asynchronously off the request path: every primary decision is queued
// (never blocking — the queue drops under pressure) and replayed against
// the shadow, streaming per-parameter agreement and decision-divergence
// metrics through the registry. POST /v1/models/promote swaps the shadow
// in once agreement clears the caller's threshold. Shadow evaluation
// never alters, delays or reorders primary responses. source names where
// the candidate was loaded from, for GET /v1/models.
func WithShadow(eng *Engine, source string) Option {
	return func(o *options) { o.shadow, o.shadowSource = eng, source }
}

// WithShadowQueue bounds the shadow duplication queue (default 1024);
// a full queue drops duplicates (counted) rather than delaying primaries.
func WithShadowQueue(n int) Option {
	return func(o *options) { o.shadowQueue = n }
}

// WithActiveSource names where the active engine was loaded from, shown
// on GET /v1/models (defaults to the WithModelPath value).
func WithActiveSource(source string) Option {
	return func(o *options) { o.activeSource = source }
}
