// Command adaptd serves the trained adaptivity predictor as an always-on
// inference daemon — the paper's §VIII deployment (trained weights shipped
// into hardware decision tables) recast as a model-serving service. On
// first boot it trains a predictor through the experiment harness and
// caches it to -model; later boots (and POST /v1/reload) load the file.
//
// Endpoints (the full v1 route map lives in README.md "Serving the
// model"):
//
//	POST /v1/predict        counter feature vector -> predicted
//	                        configuration ({"batch": [...]} evaluates many
//	                        vectors in one batched kernel call and streams
//	                        per-item results; ?probs=1 adds the
//	                        per-parameter soft-max probabilities; the
//	                        X-Request-Class header or "class" field tags
//	                        the admission class)
//	GET  /v1/designspace    Table I metadata and the serving model's shape
//	GET  /v1/models         active + shadow model identity and the
//	                        shadow's agreement stats
//	POST /v1/models/promote hot-swap the shadow to active (optional
//	                        minAgreement/minCompared evidence gates)
//	GET  /v1/status         SLO snapshot: model fingerprint, per-(path,
//	                        code) request counters, error rates, cache and
//	                        batch stats, windowed per-route latency
//	                        p50/p99/p999, per-class admission counters and
//	                        quantiles, and the shadow section — uptime-
//	                        free, so snapshots diff cleanly
//	GET  /healthz           liveness + model info + cache stats
//	GET  /metrics           Prometheus text: request counts, latency
//	                        histogram, cache hit rate, saturation, shed
//	                        and shadow series, plus the process-wide
//	                        sim/experiment series
//	POST /v1/reload         re-read -model and hot-swap it, zero downtime
//
// With -debug, introspection endpoints are mounted as well: net/http/pprof
// under /debug/pprof/, an expvar-style snapshot at /debug/vars, and a
// Chrome trace_event snapshot of live request spans at /debug/trace.
//
// Usage:
//
//	adaptd [-addr :8080] [-model adaptd.model] [-counter-set advanced|basic]
//	       [-quantized] [-train-scale test|default] [-cache-dir DIR]
//	       [-cache 4096] [-max-inflight 64] [-timeout 5s] [-max-body N]
//	       [-admission] [-slo-p99 0] [-admission-rate class=RATE[:BURST]]...
//	       [-shadow candidate.model] [-shadow-queue 1024]
//	       [-debug] [-log-json] [-log-level info] [-manifest out.json]
//	       [-loadgen] [-loadgen-requests N] [-loadgen-conc N]
//	       [-loadgen-pool N] [-loadgen-batch N] [-loadgen-seed N]
//	       [-loadgen-mode closed|open] [-rps N]
//	       [-loadgen-arrivals poisson|pareto] [-loadgen-zipf S]
//	       [-loadgen-mix interactive=0.7,batch=0.2,background=0.1]
//
// With -cache-dir, first-boot training runs against the persistent
// simulation-result store (internal/store): a boot interrupted by SIGINT
// mid-dataset resumes from the store on the next boot instead of
// restarting the ~40-minute build from scratch.
//
// With -loadgen the daemon boots normally, points a deterministic seeded
// load generator at itself, prints the throughput/latency report and the
// server metrics, and exits — a reproducible serving benchmark. The
// default closed loop measures capacity; -loadgen-mode open offers load
// at a fixed -rps with Poisson or heavy-tailed Pareto arrivals, which is
// how to observe shedding and overload behaviour.
//
// With -shadow, a second model file is loaded as a shadow: it receives
// duplicated traffic strictly off the request path and its agreement with
// the active model streams through /v1/models, /v1/status and /metrics
// until POST /v1/models/promote swaps it in.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/store"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		modelPath  = flag.String("model", "adaptd.model", "predictor file: loaded if present, else trained and saved")
		setName    = flag.String("counter-set", "advanced", "counter set: advanced or basic")
		quantized  = flag.Bool("quantized", false, "serve the 8-bit quantized model (§VIII hardware form)")
		trainScale = flag.String("train-scale", "test", "first-boot training scale: test or default")
		cacheDir   = flag.String("cache-dir", "", "persistent simulation-result store for first-boot training (empty disables)")
		cacheSize  = flag.Int("cache", 4096, "LRU decision-cache entries (0 disables)")
		maxInfl    = flag.Int("max-inflight", 64, "concurrent predicts before 429 backpressure")
		timeout    = flag.Duration("timeout", 5*time.Second, "per-request deadline")
		maxBody    = flag.Int64("max-body", 1<<20, "request body byte limit")
		debug      = flag.Bool("debug", false, "mount /debug/pprof/, /debug/vars and /debug/trace")
		logJSON    = flag.Bool("log-json", false, "emit logs as JSON instead of text")
		logLevel   = flag.String("log-level", "info", "log level: debug, info, warn or error")
		loadgen    = flag.Bool("loadgen", false, "boot, benchmark the server with seeded load, print a report, exit")
		lgRequests = flag.Int("loadgen-requests", 2000, "loadgen: total requests")
		lgConc     = flag.Int("loadgen-conc", 8, "loadgen: concurrent workers (closed mode)")
		lgPool     = flag.Int("loadgen-pool", 64, "loadgen: distinct feature vectors (repeats exercise the cache)")
		lgBatch    = flag.Int("loadgen-batch", 1, "loadgen: feature vectors per request (>= 2 uses the batch payload)")
		lgSeed     = flag.Uint64("loadgen-seed", 1, "loadgen schedule seed")
		lgMode     = flag.String("loadgen-mode", "closed", "loadgen replay discipline: closed (workers) or open (fixed arrival rate)")
		rps        = flag.Float64("rps", 0, "loadgen: open-loop target arrivals per second (required with -loadgen-mode open)")
		lgArrivals = flag.String("loadgen-arrivals", "poisson", "loadgen open-loop inter-arrival law: poisson or pareto (heavy-tailed)")
		lgZipf     = flag.Float64("loadgen-zipf", 0, "loadgen: Zipf popularity exponent over the pool (0 = uniform)")
		lgMix      = flag.String("loadgen-mix", "", "loadgen: class mix as class=share pairs, e.g. interactive=0.7,batch=0.2,background=0.1 (empty = that default)")
		admitOn    = flag.Bool("admission", false, "enable per-class admission control with the default shed-lowest-first ladder")
		sloP99     = flag.Duration("slo-p99", 0, "admission: windowed /v1/predict p99 target defended by SLO shedding (0 disables; implies -admission)")
		shadowPath = flag.String("shadow", "", "load this model file as a shadow: evaluated on duplicated traffic off the request path")
		shadowQ    = flag.Int("shadow-queue", 1024, "shadow duplication queue length (overflow drops duplicates)")
		manifest   = flag.String("manifest", "", "write a run manifest to this file; defaults to manifest-adaptd.json under -cache-dir")
	)
	admitRates := map[serve.Class]serve.ClassPolicy{}
	flag.Func("admission-rate", "admission token bucket as class=RATE[:BURST], repeatable (implies -admission)", func(v string) error {
		class, pol, err := parseRate(v)
		if err != nil {
			return err
		}
		admitRates[class] = pol
		return nil
	})
	flag.Parse()

	logger := obs.NewLogger(os.Stderr, *logJSON, obs.ParseLevel(*logLevel))
	die := func(err error) {
		logger.Error("fatal", "err", err)
		os.Exit(1)
	}

	set := counters.Advanced
	switch *setName {
	case "advanced":
	case "basic":
		set = counters.Basic
	default:
		die(fmt.Errorf("unknown -counter-set %q (want advanced or basic)", *setName))
	}

	var tracer *obs.Tracer
	if *debug {
		tracer = obs.DefaultTracer()
		tracer.Enable()
	}

	manifestPath := *manifest
	if manifestPath == "" && *cacheDir != "" {
		manifestPath = filepath.Join(*cacheDir, "manifest-adaptd.json")
	}

	// The signal context exists before first-boot training so a SIGINT
	// during the (potentially long) dataset build exits promptly instead of
	// waiting for training to finish.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	bootStart := time.Now()
	pred, trained, err := bootPredictor(ctx, logger, *modelPath, set, *trainScale, *cacheDir)
	if err != nil {
		die(err)
	}
	eng, err := serve.NewEngine(pred, *quantized)
	if err != nil {
		die(err)
	}
	opts := []serve.Option{
		serve.WithModelPath(*modelPath),
		serve.WithCacheSize(*cacheSize),
		serve.WithMaxBody(*maxBody),
		serve.WithTimeout(*timeout),
		serve.WithMaxInflight(*maxInfl),
		serve.WithTracer(tracer),
		serve.WithShadowQueue(*shadowQ),
	}
	if *debug {
		opts = append(opts, serve.WithDebug())
	}
	admission := *admitOn || *sloP99 > 0 || len(admitRates) > 0
	if admission {
		cfg := serve.DefaultAdmissionConfig()
		cfg.TargetP99 = *sloP99
		for class, pol := range admitRates {
			base := cfg.Classes[class]
			base.Rate, base.Burst = pol.Rate, pol.Burst
			cfg.Classes[class] = base
		}
		opts = append(opts, serve.WithAdmission(cfg))
	}
	if *shadowPath != "" {
		shadowEng, err := loadShadow(*shadowPath, set, *quantized)
		if err != nil {
			die(err)
		}
		opts = append(opts, serve.WithShadow(shadowEng, *shadowPath))
		logger.Info("shadow model loaded", "path", *shadowPath, "version", shadowEng.Version())
	}
	srv := serve.New(eng, opts...)
	defer srv.Close()
	mode := "float64"
	if *quantized {
		mode = "8-bit quantized"
	}
	logger.Info("serving model", "mode", mode, "counters", eng.Set().String(),
		"weights", eng.WeightCount(), "dim", eng.Dim(), "debug", *debug)

	// The manifest's deterministic section holds the serving configuration,
	// the model fingerprint and, on a first boot that trained the model,
	// its per-parameter convergence; boot time (which covers first-boot
	// training when the model file was absent) is timing.
	var man *obs.Manifest
	if manifestPath != "" {
		man = obs.NewManifest("adaptd")
		man.SetDet("counterSet", set.String())
		man.SetDet("quantized", *quantized)
		man.SetDet("trainScale", *trainScale)
		man.SetDet("modelVersion", eng.Version())
		man.SetDet("cacheSize", *cacheSize)
		man.SetDet("maxInflight", *maxInfl)
		man.SetDet("admission", admission)
		man.SetDet("sloP99NS", int64(*sloP99))
		man.SetDet("shadow", *shadowPath)
		if trained {
			experiment.FillTrainManifest(man, pred)
		}
		man.SetTiming("bootSeconds", time.Since(bootStart).Seconds())
	}
	writeManifest := func() {
		if man == nil {
			return
		}
		if err := man.WriteFile(manifestPath); err != nil {
			logger.Error("writing manifest", "err", err)
			return
		}
		logger.Info("manifest written", "path", manifestPath)
	}

	if *loadgen {
		mix, err := parseMix(*lgMix)
		if err != nil {
			die(err)
		}
		lg := serve.LoadGen{
			Requests:    *lgRequests,
			Concurrency: *lgConc,
			Seed:        *lgSeed,
			Pool:        serve.SyntheticFeatures(eng.Dim(), *lgPool, *lgSeed),
			Batch:       *lgBatch,
			Mode:        *lgMode,
			RPS:         *rps,
			Arrivals:    *lgArrivals,
			ZipfS:       *lgZipf,
			Mix:         mix,
		}
		// Loadgen binds its own loopback port: it benchmarks the serving
		// stack in-process rather than exposing -addr.
		runLoadgen(logger, srv, man, lg, *lgPool)
		writeManifest()
		return
	}
	writeManifest()

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       *timeout + 5*time.Second,
		WriteTimeout:      *timeout + 5*time.Second,
	}
	errCh := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", *addr)
		errCh <- httpSrv.ListenAndServe()
	}()
	select {
	case err := <-errCh:
		die(err)
	case <-ctx.Done():
	}
	logger.Info("signal received; draining connections")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		die(fmt.Errorf("shutdown: %w", err))
	}
	logger.Info("shut down cleanly", "cacheHitRate", fmt.Sprintf("%.1f%%", 100*srv.HitRate()))
}

// bootPredictor loads the model file if it exists; otherwise it trains one
// through the experiment harness at the requested scale (cancellable via
// ctx), saves it and reports that it trained. With cacheDir, the training
// dataset is built against the persistent result store there, so an
// interrupted first boot resumes mid-dataset instead of restarting.
func bootPredictor(ctx context.Context, logger *slog.Logger, path string, set counters.Set, scaleName, cacheDir string) (*core.Predictor, bool, error) {
	if f, err := os.Open(path); err == nil {
		defer f.Close()
		pred, err := core.LoadPredictor(f)
		if err != nil {
			return nil, false, fmt.Errorf("loading %s: %w (delete it to retrain)", path, err)
		}
		if pred.Set != set {
			return nil, false, fmt.Errorf("model %s was trained on the %q counter set but -counter-set is %q; retrain or switch the flag", path, pred.Set, set)
		}
		logger.Info("loaded predictor", "path", path)
		return pred, false, nil
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, false, fmt.Errorf("opening %s: %w", path, err)
	}

	sc := experiment.TestScale()
	if scaleName == "default" {
		sc = experiment.DefaultScale()
	}
	var st *store.Store
	if cacheDir != "" {
		var err error
		if st, err = store.Open(cacheDir); err != nil {
			// ErrLocked already names the lock path and what to do about
			// it; the flag context is all that's missing.
			return nil, false, fmt.Errorf("opening -cache-dir: %w", err)
		}
		defer st.Close()
		logger.Info("result store open", "dir", cacheDir, "records", st.Len())
	}
	logger.Info("no model; training", "path", path, "scale", scaleName,
		"programs", len(sc.Programs), "phasesPerProgram", sc.PhasesPerProgram)
	prog := &obs.Progress{Logger: logger}
	experiment.SetProgress(func(stage string, done, total int) {
		prog.Observe(stage, done, total)
	})
	defer experiment.SetProgress(nil)
	ds, err := experiment.Build(ctx, sc, experiment.WithStore(st))
	if err != nil {
		return nil, false, err
	}
	if st != nil {
		s := st.Stats()
		logger.Info("store stats", "storeHits", s.Hits, "storeMisses", s.Misses,
			"records", s.Records, "bytesWritten", s.BytesWritten)
	}
	pred, err := ds.TrainAllCtx(ctx, set)
	if err != nil {
		return nil, false, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, false, err
	}
	defer f.Close()
	if err := pred.Save(f); err != nil {
		return nil, false, err
	}
	logger.Info("trained and saved predictor", "path", path, "weights", pred.WeightCount())
	return pred, true, nil
}

// runLoadgen serves on a local listener and fires the seeded load
// generator at it, printing the report (per-class rows included), the
// /v1/status windowed latency quantiles, the shadow agreement line when
// a shadow is mounted, and the server's own metrics. When man is
// non-nil, the schedule joins its deterministic section and every
// measured outcome (counts included — 429s and sheds are
// timing-dependent) joins timing.
func runLoadgen(logger *slog.Logger, srv *serve.Server, man *obs.Manifest, lg serve.LoadGen, pool int) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		logger.Error("fatal", "err", err)
		os.Exit(1)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go func() { _ = httpSrv.Serve(ln) }()
	defer httpSrv.Close()

	logger.Info("loadgen", "mode", lg.Mode, "requests", lg.Requests, "workers", lg.Concurrency,
		"rps", lg.RPS, "arrivals", lg.Arrivals, "zipf", lg.ZipfS,
		"pool", pool, "batch", lg.Batch, "seed", lg.Seed)
	rep, err := lg.Run("http://"+ln.Addr().String(), nil)
	if err != nil {
		logger.Error("fatal", "err", err)
		os.Exit(1)
	}
	fmt.Println(rep)
	fmt.Printf("server cache hit rate: %.1f%%\n\n", 100*srv.HitRate())

	// Let the shadow worker drain its queue before reading agreement —
	// duplicated traffic is asynchronous by contract, so the final few
	// comparisons may land after the last response.
	if !srv.ShadowDrain(30 * time.Second) {
		logger.Warn("shadow queue did not drain within 30s; agreement stats may be partial")
	}

	status := fetchStatus(logger, "http://"+ln.Addr().String())
	if status != nil {
		fmt.Println("latency SLOs from /v1/status (windowed):")
		for _, rl := range status.Latency {
			if rl.TotalCount == 0 {
				continue
			}
			fmt.Printf("  slo %-16s p50=%.6fs p99=%.6fs p999=%.6fs requests=%d\n",
				rl.Path, rl.P50Seconds, rl.P99Seconds, rl.P999Seconds, rl.TotalCount)
		}
		for _, cs := range status.Admission.Classes {
			if cs.Requests == 0 && cs.TotalCount == 0 {
				continue
			}
			fmt.Printf("  class %-12s requests=%d shed=%d p50=%.6fs p99=%.6fs\n",
				cs.Class, cs.Requests, cs.Shed, cs.P50Seconds, cs.P99Seconds)
		}
		if sh := status.Shadow; sh != nil {
			fmt.Printf("  shadow %-12s compared=%d dropped=%d paramAgreement=%.3f decisionMatch=%.3f\n",
				sh.Source, sh.Compared, sh.Dropped, sh.ParamAgreement, sh.DecisionMatchRate)
		}
		fmt.Println()
	}
	fmt.Println(srv.MetricsText())

	if man != nil {
		man.SetDet("loadgen.mode", lg.Mode)
		man.SetDet("loadgen.requests", lg.Requests)
		man.SetDet("loadgen.concurrency", lg.Concurrency)
		man.SetDet("loadgen.rps", lg.RPS)
		man.SetDet("loadgen.arrivals", lg.Arrivals)
		man.SetDet("loadgen.zipf", lg.ZipfS)
		man.SetDet("loadgen.pool", pool)
		man.SetDet("loadgen.batch", lg.Batch)
		man.SetDet("loadgen.seed", lg.Seed)
		man.SetTiming("loadgen.elapsedSeconds", rep.Elapsed.Seconds())
		man.SetTiming("loadgen.requestsPerSec", rep.RequestsPerSec)
		man.SetTiming("loadgen.p50Seconds", rep.P50.Seconds())
		man.SetTiming("loadgen.p95Seconds", rep.P95.Seconds())
		man.SetTiming("loadgen.maxSeconds", rep.Max.Seconds())
		man.SetTiming("loadgen.ok", float64(rep.OK))
		man.SetTiming("loadgen.rejected", float64(rep.Rejected))
		man.SetTiming("loadgen.shed", float64(rep.Shed))
		man.SetTiming("loadgen.errors", float64(rep.ClientErr+rep.ServerErr+rep.Transport))
		man.SetTiming("loadgen.cacheHits", float64(rep.CacheHits))
		if status != nil {
			for _, rl := range status.Latency {
				if rl.TotalCount == 0 {
					continue
				}
				man.SetTiming("slo."+rl.Path+".p50Seconds", rl.P50Seconds)
				man.SetTiming("slo."+rl.Path+".p99Seconds", rl.P99Seconds)
				man.SetTiming("slo."+rl.Path+".p999Seconds", rl.P999Seconds)
			}
			for _, cs := range status.Admission.Classes {
				if cs.TotalCount == 0 {
					continue
				}
				man.SetTiming("slo.class."+cs.Class+".p50Seconds", cs.P50Seconds)
				man.SetTiming("slo.class."+cs.Class+".p99Seconds", cs.P99Seconds)
				man.SetTiming("slo.class."+cs.Class+".shed", float64(cs.Shed))
			}
			if sh := status.Shadow; sh != nil {
				man.SetTiming("shadow.compared", float64(sh.Compared))
				man.SetTiming("shadow.dropped", float64(sh.Dropped))
				man.SetTiming("shadow.paramAgreement", sh.ParamAgreement)
				man.SetTiming("shadow.decisionMatchRate", sh.DecisionMatchRate)
			}
		}
	}
}

// parseRate parses an -admission-rate value of the form
// class=RATE[:BURST] (RATE in requests per second; BURST defaults to
// the policy default, ceil(rate) but at least 1).
func parseRate(v string) (serve.Class, serve.ClassPolicy, error) {
	name, spec, ok := strings.Cut(v, "=")
	if !ok || name == "" {
		return 0, serve.ClassPolicy{}, fmt.Errorf("admission-rate %q: want class=RATE[:BURST]", v)
	}
	class, ok := serve.ParseClass(name)
	if !ok {
		return 0, serve.ClassPolicy{}, fmt.Errorf("admission-rate %q: unknown class %q", v, name)
	}
	rateStr, burstStr, hasBurst := strings.Cut(spec, ":")
	rate, err := strconv.ParseFloat(rateStr, 64)
	if err != nil || !positiveFinite(rate) {
		return 0, serve.ClassPolicy{}, fmt.Errorf("admission-rate %q: bad rate %q", v, rateStr)
	}
	pol := serve.ClassPolicy{Rate: rate}
	if hasBurst {
		burst, err := strconv.ParseFloat(burstStr, 64)
		if err != nil || !positiveFinite(burst) {
			return 0, serve.ClassPolicy{}, fmt.Errorf("admission-rate %q: bad burst %q", v, burstStr)
		}
		pol.Burst = burst
	}
	return class, pol, nil
}

// finite reports whether x is neither NaN nor infinite. strconv.ParseFloat
// accepts "NaN" and "Inf", and both slip past plain sign checks: a NaN
// rate would silently switch the token bucket off.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// positiveFinite reports whether x is a usable rate or burst.
func positiveFinite(x float64) bool { return x > 0 && finite(x) }

// parseMix parses a -loadgen-mix value: comma-separated class=share
// pairs. Empty input returns the default 70/20/10 mix.
func parseMix(s string) (serve.ClassMix, error) {
	if s == "" {
		return serve.DefaultClassMix(), nil
	}
	var mix serve.ClassMix
	for _, pair := range strings.Split(s, ",") {
		name, shareStr, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok {
			return mix, fmt.Errorf("loadgen-mix %q: want class=share pairs", s)
		}
		class, okc := serve.ParseClass(name)
		if !okc || name == "" {
			return mix, fmt.Errorf("loadgen-mix %q: unknown class %q", s, name)
		}
		share, err := strconv.ParseFloat(shareStr, 64)
		if err != nil || share < 0 || !finite(share) {
			return mix, fmt.Errorf("loadgen-mix %q: bad share %q", s, shareStr)
		}
		mix[class] = share
	}
	return mix, nil
}

// loadShadow loads a candidate model file as a shadow engine, holding it
// to the same counter-set and quantization discipline as the active
// model so promotion is always a like-for-like swap.
func loadShadow(path string, set counters.Set, quantized bool) (*serve.Engine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("opening -shadow %s: %w", path, err)
	}
	defer f.Close()
	pred, err := core.LoadPredictor(f)
	if err != nil {
		return nil, fmt.Errorf("loading -shadow %s: %w", path, err)
	}
	if pred.Set != set {
		return nil, fmt.Errorf("shadow %s was trained on the %q counter set but -counter-set is %q", path, pred.Set, set)
	}
	return serve.NewEngine(pred, quantized)
}

// fetchStatus reads /v1/status; a failure logs and returns nil rather
// than aborting a finished benchmark run.
func fetchStatus(logger *slog.Logger, baseURL string) *serve.StatusResponse {
	resp, err := http.Get(baseURL + "/v1/status")
	if err != nil {
		logger.Error("fetching /v1/status", "err", err)
		return nil
	}
	defer resp.Body.Close()
	var sr serve.StatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		logger.Error("decoding /v1/status", "err", err)
		return nil
	}
	return &sr
}
