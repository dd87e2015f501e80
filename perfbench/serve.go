package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/arch"
	"repro/internal/counters"
	"repro/internal/experiment"
	"repro/internal/serve"
)

const (
	// cacheEntries is the decision-cache size the server boots with.
	cacheEntries = 4096
	// poolSize and zipfS shape request popularity: Zipf(1) over 1024
	// vectors keeps the decision cache mostly hit.
	poolSize = 1024
	zipfS    = 1.0
	// okLimit is the latency a request must meet to count as ok.
	okLimit = 20 * time.Millisecond
	// clientConns caps the client's connections (and in-flight requests).
	clientConns = 2
	// rps is the open loop's arrival rate; a run schedules at least
	// minRequests (tinyRequests at smoke-test size) and enough to last its
	// measurement time.
	rps          = 400
	minRequests  = 6000
	tinyRequests = 100
	// spanHeader carries a traced request's index to the handler timer.
	spanHeader = "X-Perfbench-Span"
)

// serveScale is the dataset adaptd trains on at first boot with
// -train-scale test.
func serveScale(cfg config) experiment.Scale {
	sc := experiment.TestScale()
	sc.Seed = cfg.ScaleSeed
	if cfg.Tiny {
		sc.Programs = sc.Programs[:2]
		sc.PhasesPerProgram = 1
		sc.UniformSamples = 4
		sc.LocalSamples = 2
	}
	return sc
}

// serverOptions are the options adaptd's first boot serves with here: the
// decision cache and default admission control.
func serverOptions() []serve.Option {
	return []serve.Option{
		serve.WithCacheSize(cacheEntries),
		serve.WithAdmission(serve.DefaultAdmissionConfig()),
	}
}

// bootServer replays adaptd's first boot: build the dataset, train on
// every phase, wrap the predictor in an engine and a server.
func bootServer(ctx context.Context, sc experiment.Scale) (*serve.Server, error) {
	ds, err := experiment.Build(ctx, sc)
	if err != nil {
		return nil, err
	}
	pred, err := ds.TrainAll(counters.Advanced)
	if err != nil {
		return nil, err
	}
	eng, err := serve.NewEngine(pred, false)
	if err != nil {
		return nil, err
	}
	return serve.New(eng, serverOptions()...), nil
}

// listening is a booted server answering HTTP on a loopback port.
type listening struct {
	srv  *serve.Server
	http *http.Server
	url  string
	done chan struct{} // closed when Serve has returned
}

func listen(srv *serve.Server, h http.Handler) (*listening, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listening{
		srv:  srv,
		http: &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(l.done)
		_ = l.http.Serve(ln) // returns ErrServerClosed after close
	}()
	return l, nil
}

// close stops the HTTP server and waits for it.
func (l *listening) close() {
	_ = l.http.Close()
	<-l.done
	l.srv.Close()
}

// handlerTimes records, per traced request index, when the server's
// handler started and finished. The handler and the client run on
// different goroutines, hence the atomics.
type handlerTimes struct {
	start, end []atomic.Int64 // unix nanoseconds
}

// wrap times Server.Handler() for requests that carry spanHeader.
func (ht *handlerTimes) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(spanHeader)
		if id == "" {
			h.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		h.ServeHTTP(w, r)
		t1 := time.Now()
		if i, err := strconv.Atoi(id); err == nil && i >= 0 && i < len(ht.start) {
			ht.start[i].Store(t0.UnixNano())
			ht.end[i].Store(t1.UnixNano())
		}
	})
}

// request is one scheduled request's outcome. Times are offsets from the
// start of the schedule.
type request struct {
	due, sent, done     time.Duration
	code                int
	shed, cached, wrong bool
	err                 error
}

// latency is measured from when the request was due, so time spent
// waiting behind a stall counts against it.
func (r request) latency() time.Duration { return r.done - r.due }

// ok reports a correct 200 within the limit.
func (r request) ok() bool {
	return r.err == nil && r.code == http.StatusOK && !r.wrong && r.latency() <= okLimit
}

// failed reports a request that got no correct decision at all.
func (r request) failed() bool {
	return r.err != nil || r.code != http.StatusOK || r.wrong
}

// dispatcher replays an open-loop schedule against url over at most conns
// client connections. conns workers take the requests in schedule order;
// each sleeps until its request is due (never spinning) and sends it, so a
// request due while every worker is busy waits for the first to free up.
type dispatcher struct {
	client *http.Client
	url    string
	conns  int
	bodies [][]byte // per pool index
	// check validates a 200 body for a pool index; it reports whether the
	// decision came from the cache.
	check func(index int, body []byte) (cached bool, err error)
	// traced marks which schedule indices carry spanHeader.
	traced func(i int) bool
}

func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// run replays schedule and returns every request's outcome, in schedule
// order.
func (d *dispatcher) run(ctx context.Context, schedule []serve.Arrival) []request {
	out := make([]request, len(schedule))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < d.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(schedule) {
					return
				}
				sleepUntil(start, schedule[i].At)
				out[i].due = schedule[i].At
				d.send(ctx, start, schedule[i], i, &out[i])
			}
		}()
	}
	wg.Wait()
	return out
}

// sleepUntil blocks until offset at past start. The runtime's timers wake
// sleepers on Linux with millisecond granularity, which would add up to a
// millisecond of dispatch lateness to every request; nanosleep blocks the
// thread in the kernel and wakes within its timer slack, without spinning.
func sleepUntil(start time.Time, at time.Duration) {
	for {
		wait := at - time.Since(start)
		if wait <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(wait))
		_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep loops
	}
}

// send issues one request and records its outcome into r.
func (d *dispatcher) send(ctx context.Context, start time.Time, a serve.Arrival, i int, r *request) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.url+"/v1/predict", bytes.NewReader(d.bodies[a.Index]))
	if err != nil {
		r.err = err
		return
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Class", a.Class.String())
	if d.traced != nil && d.traced(i) {
		req.Header.Set(spanHeader, strconv.Itoa(i))
	}
	r.sent = time.Since(start)
	resp, err := d.client.Do(req)
	if err != nil {
		r.done = time.Since(start)
		r.err = err
		return
	}
	body, err := io.ReadAll(resp.Body)
	r.done = time.Since(start)
	resp.Body.Close()
	r.code = resp.StatusCode
	r.shed = resp.Header.Get("X-Adaptd-Shed") != ""
	if err != nil {
		r.err = err
		return
	}
	if r.code == http.StatusOK {
		cached, err := d.check(a.Index, body)
		r.cached = cached
		r.wrong = err != nil
	}
}

// decisionChecker checks 200 bodies against the decisions Engine.Predict
// gave for the same pool vectors.
func decisionChecker(want []arch.Config) func(int, []byte) (bool, error) {
	return func(index int, body []byte) (bool, error) {
		var resp serve.PredictResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return false, err
		}
		if len(resp.Config) != int(arch.NumParams) {
			return resp.Cached, fmt.Errorf("decision has %d parameters", len(resp.Config))
		}
		for p := arch.Param(0); p < arch.NumParams; p++ {
			if resp.Config[p.String()] != want[index][p] {
				return resp.Cached, fmt.Errorf("decision for pool vector %d differs from Engine.Predict", index)
			}
		}
		return resp.Cached, nil
	}
}

// runServe measures serve-open: set-up boots the server (cfg.Setups
// times, split around the measurement), then an open loop of Poisson
// arrivals replays the seeded schedule against the last boot before it
// and every response is checked.
func runServe(ctx context.Context, cfg config) (outcome, error) {
	sc := serveScale(cfg)
	n := max(minRequests, int(rps*cfg.Seconds))
	if cfg.Tiny {
		n = tinyRequests
	}
	// Allocated before any server starts, so the handler timer only ever
	// reads the finished slices.
	ht := handlerTimes{start: make([]atomic.Int64, n), end: make([]atomic.Int64, n)}
	var setups []float64
	boot := func() (*listening, error) {
		t0 := time.Now()
		srv, err := bootServer(ctx, sc)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		h := srv.Handler()
		if cfg.Trace {
			h = ht.wrap(h)
		}
		l, err := listen(srv, h)
		if err != nil {
			srv.Close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		return l, nil
	}
	// The last boot before the measurement serves it.
	var l *listening
	for i := 0; i < cfg.setupsBefore(); i++ {
		if l != nil {
			l.close()
		}
		var err error
		if l, err = boot(); err != nil {
			return outcome{}, err
		}
	}
	defer l.close()
	eng := l.srv.Engine()

	pool := servePool(eng.Dim(), cfg.PoolSeed)
	bodies := make([][]byte, len(pool))
	want := make([]arch.Config, len(pool))
	for i, f := range pool {
		b, err := json.Marshal(serve.PredictRequest{Features: f})
		if err != nil {
			return outcome{}, err
		}
		bodies[i] = b
		want[i], _ = eng.Predict(f)
	}
	schedule, err := scheduleFor(cfg, pool, n)
	if err != nil {
		return outcome{}, err
	}

	client := newClient(clientConns)
	defer client.CloseIdleConnections()
	if err := warmConnections(ctx, client, l.url, clientConns); err != nil {
		return outcome{}, err
	}
	d := &dispatcher{client: client, url: l.url, conns: clientConns, bodies: bodies, check: decisionChecker(want)}
	if cfg.Trace {
		d.traced = func(i int) bool { return i%2 == 0 }
	}
	reqs := d.run(ctx, schedule)
	for i := cfg.setupsBefore(); i < cfg.Setups; i++ {
		extra, err := boot()
		if err != nil {
			return outcome{}, err
		}
		extra.close()
	}

	o := outcome{Values: map[string]float64{}, Attempted: len(reqs)}
	var lat, hitLat, late []time.Duration
	ok := 0
	for _, r := range reqs {
		lat = append(lat, r.latency())
		late = append(late, r.sent-r.due)
		if r.cached && !r.failed() {
			hitLat = append(hitLat, r.latency())
		}
		if r.ok() {
			ok++
		}
		if r.failed() {
			o.Failed++
		}
		if r.wrong {
			o.Wrong++
		}
	}
	v := o.Values
	if !cfg.Trace {
		v["setup_s"] = trimmedMean(setups)
		v["p50_ms"] = median(millis(lat))
		v["warm_p50_ms"] = median(millis(hitLat))
		v["ok_ratio"] = float64(ok) / float64(len(reqs))
		return o, nil
	}

	tr := &tracer{on: true}
	var led ledger
	var traced, plain []time.Duration
	for i, r := range reqs {
		if !d.traced(i) {
			plain = append(plain, r.latency())
			continue
		}
		traced = append(traced, r.latency())
		hs, he := ht.start[i].Load(), ht.end[i].Load()
		if r.failed() || hs == 0 {
			continue
		}
		tr.reset()
		tr.add("loadgen.queue", r.sent-r.due)
		tr.add("serve.handler", time.Duration(he-hs))
		led.addOp(r.latency(), tr)
	}
	led.fill(v)
	v["trace_overhead_ratio"] = overheadRatio(traced, plain)
	v["serve.hit_ratio"] = l.srv.HitRate()
	v["op_p50_ms"] = median(millis(lat))
	v["op_p90_ms"] = quantile(millis(lat), 0.9)
	v["op_p99_ms"] = quantile(millis(lat), 0.99)
	v["loadgen.late_p99_ms"] = quantile(millis(late), 0.99)
	v["loadgen.late_max_ms"] = quantile(millis(late), 1)
	for i, r := range reqs {
		class := schedule[i].Class.String()
		v["serve.requests."+class]++
		switch {
		case r.ok():
			v["serve.ok."+class]++
		case r.shed:
			v["serve.shed."+class]++
		}
		if r.failed() {
			v["serve.failed."+class]++
		}
	}
	if err := probeServe(eng, bodies, pool, cfg.PoolSeed, v); err != nil {
		return o, err
	}
	if err := probeReport(ctx, sc, v); err != nil {
		return o, err
	}
	return o, nil
}

// servePool is serve-open's feature-vector pool.
func servePool(dim int, seed uint64) [][]float64 {
	return serve.SyntheticFeatures(dim, poolSize, seed)
}

// scheduleFor builds serve-open's arrival schedule: n Poisson arrivals at
// rps, Zipf pool popularity, the default class mix.
func scheduleFor(cfg config, pool [][]float64, n int) ([]serve.Arrival, error) {
	return serve.LoadGen{
		Requests: n,
		Seed:     cfg.ScheduleSeed,
		Pool:     pool,
		Mode:     "open",
		RPS:      rps,
		ZipfS:    zipfS,
	}.Schedule()
}

// warmConnections opens the client's connections with health checks, so
// the first scheduled requests do not pay the TCP handshake.
func warmConnections(ctx context.Context, client *http.Client, url string, conns int) error {
	errs := make(chan error, conns)
	for i := 0; i < conns; i++ {
		go func() {
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/healthz", nil)
			if err != nil {
				errs <- err
				return
			}
			resp, err := client.Do(req)
			if err != nil {
				errs <- err
				return
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("healthz answered %d", resp.StatusCode)
			}
			errs <- err
		}()
	}
	var all []error
	for i := 0; i < conns; i++ {
		all = append(all, <-errs)
	}
	return errors.Join(all...)
}

// probeServe replays the request path's pieces one call at a time, against
// a second server with the same options so the measured server's cache
// and counters stay untouched: the JSON decode of a request body, the
// handler on a cache miss and on a hit (through httptest.ResponseRecorder),
// and Engine.Predict.
func probeServe(eng *serve.Engine, bodies [][]byte, pool [][]float64, seed uint64, v map[string]float64) error {
	var decode time.Duration
	for _, b := range bodies {
		var req serve.PredictRequest
		t0 := time.Now()
		err := json.NewDecoder(bytes.NewReader(b)).Decode(&req)
		decode += time.Since(t0)
		if err != nil {
			return err
		}
	}
	var predict time.Duration
	for _, f := range pool {
		t0 := time.Now()
		eng.Predict(f)
		predict += time.Since(t0)
	}

	probe := serve.New(eng, serverOptions()...)
	defer probe.Close()
	h := probe.Handler()
	fresh := serve.SyntheticFeatures(eng.Dim(), 256, seed^0x9e3779b97f4a7c15)
	var miss, hit []time.Duration
	for pass := 0; pass < 2; pass++ {
		for _, f := range fresh {
			b, err := json.Marshal(serve.PredictRequest{Features: f})
			if err != nil {
				return err
			}
			req := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(b))
			rec := httptest.NewRecorder()
			t0 := time.Now()
			h.ServeHTTP(rec, req)
			d := time.Since(t0)
			if rec.Code != http.StatusOK {
				return fmt.Errorf("handler probe answered %d", rec.Code)
			}
			if pass == 0 {
				miss = append(miss, d)
			} else {
				hit = append(hit, d)
			}
		}
	}
	n := float64(len(pool))
	v["serve.decode_us"] = float64(decode.Nanoseconds()) / 1e3 / float64(len(bodies))
	v["serve.engine_us"] = float64(predict.Nanoseconds()) / 1e3 / n
	v["serve.handler_miss_us"] = median(seconds(miss)) * 1e6
	v["serve.handler_hit_us"] = median(seconds(hit)) * 1e6
	return nil
}
