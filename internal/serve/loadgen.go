package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/stats"
)

// LoadGen is a deterministic, seeded load generator. It fixes the entire
// request schedule up front — arrival times, feature vectors, admission
// classes — as a pure function of the seed, then replays it against a
// running server, so a loadgen run doubles as a reproducible benchmark:
// the same seed always issues the same requests with the same class mix
// (only the measured timings differ between runs).
//
// The replay is an open loop: each request is dispatched at its scheduled
// arrival time regardless of whether earlier ones finished, so the
// offered load stays at RPS even when the server cannot keep up, which is
// what exposes queueing, saturation and admission shedding the way
// independent callers do.
type LoadGen struct {
	// Requests is the total number of predict calls to issue.
	Requests int
	// Seed drives the request schedule.
	Seed uint64
	// Pool is the feature vectors sampled from. Smaller pools mean more
	// repeats and a hotter decision cache.
	Pool [][]float64

	// Mode must be "open", the only replay discipline.
	Mode string
	// RPS is the target arrival rate.
	RPS float64
	// ZipfS, when > 0, skews pool selection with a Zipf(s) popularity law
	// (lower indices are hotter) instead of uniform draws — phases repeat
	// in practice, and a skewed pool exercises the decision cache the way
	// production traffic would.
	ZipfS float64
}

// ClassMix is the per-class share of generated requests, indexed by Class.
type ClassMix [NumClasses]float64

// DefaultClassMix is the schedule's class mix: mostly interactive, a
// batch share, a background trickle.
func DefaultClassMix() ClassMix {
	var m ClassMix
	m[ClassInteractive] = 0.7
	m[ClassBatch] = 0.2
	m[ClassBackground] = 0.1
	return m
}

// Arrival is one scheduled request: when it is dispatched (offset from
// the run start), which pool vector it carries, and its admission class.
type Arrival struct {
	At    time.Duration
	Index int
	Class Class
}

// loadgenStream is the PCG stream constant for the request schedule.
const loadgenStream = 0x10ad6e4

// Schedule fixes the run's request schedule: a pure function of the
// LoadGen configuration, independent of the server and of wall-clock
// time. Run replays exactly this schedule; tests and reports can audit it.
func (lg LoadGen) Schedule() ([]Arrival, error) {
	if len(lg.Pool) == 0 {
		return nil, fmt.Errorf("serve: loadgen needs a non-empty feature pool")
	}
	n := lg.Requests
	if n <= 0 {
		n = 1000
	}
	if lg.Mode != "open" {
		return nil, fmt.Errorf("serve: unknown loadgen mode %q (want open)", lg.Mode)
	}
	if !(lg.RPS > 0) || math.IsInf(lg.RPS, 1) {
		return nil, fmt.Errorf("serve: open-loop loadgen needs a finite -rps > 0, got %v", lg.RPS)
	}
	// Zipf popularity over pool indices via the inverse CDF: cumulative
	// weights once, a binary search per draw. ZipfS <= 0 keeps the legacy
	// uniform draws (and their exact rng consumption).
	if math.IsNaN(lg.ZipfS) || math.IsInf(lg.ZipfS, 0) {
		return nil, fmt.Errorf("serve: loadgen Zipf exponent must be finite, got %v", lg.ZipfS)
	}
	var cum []float64
	if lg.ZipfS > 0 {
		cum = make([]float64, len(lg.Pool))
		total := 0.0
		for i := range cum {
			total += math.Pow(float64(i+1), -lg.ZipfS)
			cum[i] = total
		}
	}

	mix := DefaultClassMix()
	var mixCum [NumClasses]float64
	mixTotal := 0.0
	for c := Class(0); c < NumClasses; c++ {
		mixTotal += mix[c]
		mixCum[c] = mixTotal
	}

	// Per arrival the rng is consumed in a fixed order — exponential gap,
	// pool index, class — so every configuration knob changes the
	// schedule deterministically.
	rng := rand.New(rand.NewPCG(lg.Seed, loadgenStream))
	mean := 1 / lg.RPS
	arrivals := make([]Arrival, n)
	at := 0.0
	for i := range arrivals {
		at += rng.ExpFloat64() * mean
		arrivals[i].At = time.Duration(at * float64(time.Second))
		if cum != nil {
			u := rng.Float64() * cum[len(cum)-1]
			arrivals[i].Index = sort.SearchFloat64s(cum, u)
		} else {
			arrivals[i].Index = rng.IntN(len(lg.Pool))
		}
		u := rng.Float64() * mixTotal
		c := ClassInteractive
		for k := Class(0); k < NumClasses; k++ {
			if u < mixCum[k] {
				c = k
				break
			}
		}
		arrivals[i].Class = c
	}
	return arrivals, nil
}

// LoadReport aggregates one load-generation run. The count fields are a
// pure function of (Seed, Requests, Pool) and the server's limits;
// the latency fields are wall-clock measurements.
type LoadReport struct {
	Requests  int // predictions issued
	OK        int // 200
	Shed      int // 429 by admission control (X-Adaptd-Shed present)
	Rejected  int // 429 by the concurrency limiter
	ClientErr int // other 4xx
	ServerErr int // 5xx
	Transport int // transport-level failures (and undecodable 200 bodies)
	CacheHits int // responses answered from the decision cache

	Elapsed        time.Duration
	P50, P95, Max  time.Duration
	RequestsPerSec float64 // predictions per second

	// Classes breaks the run down per admission class, most important
	// class first; empty rows are omitted.
	Classes []ClassReport
}

// ClassReport is one admission class's slice of the run.
type ClassReport struct {
	Class     string
	Requests  int
	OK        int
	Shed      int
	Rejected  int
	Errors    int // client + server + transport
	CacheHits int
	P50, P99  time.Duration
}

// String renders the report; the first line is deterministic for a seeded
// run against an unsaturated server.
func (r LoadReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b,
		"requests=%d ok=%d rejected=%d clientErr=%d serverErr=%d transportErr=%d shed=%d\n"+
			"throughput=%.0f pred/s  p50=%v p95=%v max=%v  cacheHits=%d",
		r.Requests, r.OK, r.Rejected, r.ClientErr, r.ServerErr, r.Transport, r.Shed,
		r.RequestsPerSec, r.P50.Round(time.Microsecond), r.P95.Round(time.Microsecond),
		r.Max.Round(time.Microsecond), r.CacheHits)
	for _, c := range r.Classes {
		fmt.Fprintf(&b, "\nclass %-12s requests=%d ok=%d shed=%d rejected=%d errors=%d cacheHits=%d p50=%v p99=%v",
			c.Class, c.Requests, c.OK, c.Shed, c.Rejected, c.Errors, c.CacheHits,
			c.P50.Round(time.Microsecond), c.P99.Round(time.Microsecond))
	}
	return b.String()
}

// SyntheticFeatures builds n deterministic pseudo-feature vectors of the
// given dimension: values in [0, 1) with the trailing bias fixed at 1,
// matching the shape of real counter features. Used when a loadgen run has
// no profiled phases at hand.
func SyntheticFeatures(dim, n int, seed uint64) [][]float64 {
	rng := rand.New(rand.NewPCG(seed, 0xfea70e55))
	pool := make([][]float64, n)
	for i := range pool {
		v := make([]float64, dim)
		for j := range v {
			v[j] = rng.Float64()
		}
		v[dim-1] = 1
		pool[i] = v
	}
	return pool
}

// loadgenTally accumulates outcomes under one mutex (the generator is not
// the thing under measurement).
type loadgenTally struct {
	mu        sync.Mutex
	rep       LoadReport
	latencies []float64
	perClass  [NumClasses]struct {
		r         ClassReport
		latencies []float64
	}
}

// Run replays the schedule against baseURL (e.g. "http://127.0.0.1:8080")
// using client (nil for one whose transport keeps enough idle connections
// for the overlapping arrivals) and aggregates the outcome.
func (lg LoadGen) Run(baseURL string, client *http.Client) (LoadReport, error) {
	schedule, err := lg.Schedule()
	if err != nil {
		return LoadReport{}, err
	}
	if client == nil {
		// The open loop runs as many connections as arrivals overlap; the
		// default transport keeps only 2 idle conns per host and would
		// churn sockets under burst.
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConnsPerHost = 256
		client = &http.Client{Transport: tr}
	}

	// Pre-encode every request body up front, so the request stream is a
	// pure function of the configuration regardless of interleaving.
	bodies := make([][]byte, len(lg.Pool))
	for i, f := range lg.Pool {
		b, err := json.Marshal(PredictRequest{Features: f})
		if err != nil {
			return LoadReport{}, err
		}
		bodies[i] = b
	}

	tally := &loadgenTally{}
	url := baseURL + "/v1/predict"
	var wg sync.WaitGroup
	start := time.Now()
	// Fire each request at its scheduled arrival offset, on its own
	// goroutine, whether or not earlier ones have finished.
	for _, a := range schedule {
		if wait := a.At - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		wg.Add(1)
		go func(a Arrival) {
			defer wg.Done()
			sendPredict(client, url, bodies[a.Index], a.Class, tally)
		}(a)
	}
	wg.Wait()

	rep := tally.rep
	rep.Elapsed = time.Since(start)
	if rep.Elapsed > 0 {
		rep.RequestsPerSec = float64(rep.Requests) / rep.Elapsed.Seconds()
	}
	rep.P50 = time.Duration(stats.Quantile(tally.latencies, 0.50))
	rep.P95 = time.Duration(stats.Quantile(tally.latencies, 0.95))
	rep.Max = time.Duration(stats.Quantile(tally.latencies, 1))
	for c := NumClasses; c > 0; {
		c--
		pc := &tally.perClass[c]
		if pc.r.Requests == 0 {
			continue
		}
		pc.r.Class = c.String()
		pc.r.P50 = time.Duration(stats.Quantile(pc.latencies, 0.50))
		pc.r.P99 = time.Duration(stats.Quantile(pc.latencies, 0.99))
		rep.Classes = append(rep.Classes, pc.r)
	}
	return rep, nil
}

// sendPredict issues one predict call and records its outcome.
func sendPredict(client *http.Client, url string, body []byte, class Class, tally *loadgenTally) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err == nil {
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Request-Class", class.String())
	}
	t0 := time.Now()
	var resp *http.Response
	if err == nil {
		resp, err = client.Do(req)
	}
	lat := time.Since(t0)

	tally.mu.Lock()
	defer tally.mu.Unlock()
	rep := &tally.rep
	pc := &tally.perClass[class]
	rep.Requests++
	pc.r.Requests++
	tally.latencies = append(tally.latencies, float64(lat))
	pc.latencies = append(pc.latencies, float64(lat))
	if err != nil {
		rep.Transport++
		pc.r.Errors++
		return
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusOK:
		// Only the cached flag is inspected, so the decode target skips
		// the config/probability maps and the client stays cheap relative
		// to the server under measurement.
		var pr struct {
			Cached bool `json:"cached"`
		}
		if json.NewDecoder(resp.Body).Decode(&pr) != nil {
			rep.Transport++
			pc.r.Errors++
			return
		}
		rep.OK++
		pc.r.OK++
		if pr.Cached {
			rep.CacheHits++
			pc.r.CacheHits++
		}
	case resp.StatusCode == http.StatusTooManyRequests:
		if resp.Header.Get(shedHeader) != "" {
			rep.Shed++
			pc.r.Shed++
		} else {
			rep.Rejected++
			pc.r.Rejected++
		}
	case resp.StatusCode >= 500:
		rep.ServerErr++
		pc.r.Errors++
	default:
		rep.ClientErr++
		pc.r.Errors++
	}
}
