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
//	                        configuration (?probs=1 adds the per-parameter
//	                        soft-max probabilities; the X-Request-Class
//	                        header or "class" field tags the admission
//	                        class)
//	GET  /v1/designspace    Table I metadata and the serving model's shape
//	GET  /v1/status         counter snapshot: model fingerprint, per-(path,
//	                        code) request counters, error rates, cache
//	                        stats, per-class admission counters —
//	                        uptime-free, so snapshots diff cleanly
//	GET  /healthz           liveness + model info + cache stats
//	GET  /metrics           Prometheus text: request counts, latency
//	                        histogram, cache hit rate, saturation and shed
//	                        series, plus the process-wide sim/experiment
//	                        series
//	POST /v1/reload         re-read -model and hot-swap it, zero downtime
//
// With -debug, introspection endpoints are mounted as well: net/http/pprof
// under /debug/pprof/, an expvar-style snapshot at /debug/vars, and a
// Chrome trace_event snapshot of live request spans at /debug/trace.
//
// Usage:
//
//	adaptd [-addr :8080] [-model adaptd.model] [-counter-set advanced|basic]
//	       [-quantized] [-train-scale test|mid|default] [-cache-dir DIR]
//	       [-cache 4096] [-max-inflight 64] [-timeout 5s] [-max-body N]
//	       [-admission] [-debug] [-log-json] [-log-level info] [-manifest out.json]
//
// With -cache-dir, first-boot training runs against the persistent
// simulation-result store (internal/store): a boot interrupted by SIGINT
// mid-dataset resumes from the store on the next boot instead of
// restarting the ~40-minute build from scratch.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
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
	// The signal context exists before first-boot training so a SIGINT
	// during the (potentially long) dataset build exits promptly instead of
	// waiting for training to finish.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stderr)
	stop()
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		os.Exit(1)
	}
}

// run is the whole daemon: it parses args, logs to stderr and serves
// until ctx is done, then drains. An error is logged before it is
// returned; a flag syntax error is printed by the flag set instead. Every
// flag value is checked before the model file is opened.
func run(ctx context.Context, args []string, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("adaptd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr       = fs.String("addr", ":8080", "listen address")
		modelPath  = fs.String("model", "adaptd.model", "predictor file: loaded if present, else trained and saved")
		setName    = fs.String("counter-set", "advanced", "counter set: advanced or basic")
		quantized  = fs.Bool("quantized", false, "serve the 8-bit quantized model (§VIII hardware form)")
		trainScale = fs.String("train-scale", "test", "first-boot training scale: test, mid or default")
		cacheDir   = fs.String("cache-dir", "", "persistent simulation-result store for first-boot training (empty disables)")
		cacheSize  = fs.Int("cache", 4096, "LRU decision-cache entries (0 disables)")
		maxInfl    = fs.Int("max-inflight", 64, "concurrent predicts before 429 backpressure")
		timeout    = fs.Duration("timeout", 5*time.Second, "per-request deadline")
		maxBody    = fs.Int64("max-body", 1<<20, "request body byte limit")
		debug      = fs.Bool("debug", false, "mount /debug/pprof/, /debug/vars and /debug/trace")
		logJSON    = fs.Bool("log-json", false, "emit logs as JSON instead of text")
		logLevel   = fs.String("log-level", "info", "log level: debug, info, warn or error")
		admission  = fs.Bool("admission", false, "enable per-class admission control with the default shed-lowest-first ladder")
		manifest   = fs.String("manifest", "", "write a run manifest to this file; defaults to manifest-adaptd.json under -cache-dir")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	level, levelErr := obs.ParseLevel(*logLevel)
	logger := obs.NewLogger(stderr, *logJSON, level)
	defer func() {
		if err != nil {
			logger.Error("fatal", "err", err)
		}
	}()
	if levelErr != nil {
		return fmt.Errorf("-log-level: %w", levelErr)
	}
	set, err := counters.ParseSet(*setName)
	if err != nil {
		return fmt.Errorf("-counter-set: %w", err)
	}
	sc, err := experiment.ScaleByName(*trainScale)
	if err != nil {
		return fmt.Errorf("-train-scale: %w", err)
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

	bootStart := time.Now()
	pred, trained, err := bootPredictor(ctx, logger, *modelPath, set, sc, *cacheDir)
	if err != nil {
		return err
	}
	eng, err := serve.NewEngine(pred, *quantized)
	if err != nil {
		return err
	}
	opts := []serve.Option{
		serve.WithModelPath(*modelPath),
		serve.WithCacheSize(*cacheSize),
		serve.WithMaxBody(*maxBody),
		serve.WithTimeout(*timeout),
		serve.WithMaxInflight(*maxInfl),
		serve.WithTracer(tracer),
	}
	if *debug {
		opts = append(opts, serve.WithDebug())
	}
	if *admission {
		opts = append(opts, serve.WithAdmission(serve.DefaultAdmissionConfig()))
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
	if manifestPath != "" {
		man := obs.NewManifest("adaptd")
		man.SetDet("counterSet", set.String())
		man.SetDet("quantized", *quantized)
		man.SetDet("trainScale", *trainScale)
		man.SetDet("modelVersion", eng.Version())
		man.SetDet("cacheSize", *cacheSize)
		man.SetDet("maxInflight", *maxInfl)
		man.SetDet("admission", *admission)
		if trained {
			experiment.FillTrainManifest(man, pred)
		}
		man.SetTiming("bootSeconds", time.Since(bootStart).Seconds())
		if err := man.WriteFile(manifestPath); err != nil {
			logger.Error("writing manifest", "err", err)
		} else {
			logger.Info("manifest written", "path", manifestPath)
		}
	}

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
		return err
	case <-ctx.Done():
	}
	logger.Info("signal received; draining connections")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	logger.Info("shut down cleanly", "cacheHitRate", fmt.Sprintf("%.1f%%", 100*srv.HitRate()))
	return nil
}

// bootPredictor loads the model file if it exists; otherwise it trains one
// through the experiment harness at scale sc (cancellable via ctx), saves
// it and reports that it trained. With cacheDir, the training
// dataset is built against the persistent result store there, so an
// interrupted first boot resumes mid-dataset instead of restarting.
func bootPredictor(ctx context.Context, logger *slog.Logger, path string, set counters.Set, sc experiment.Scale, cacheDir string) (*core.Predictor, bool, error) {
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
	logger.Info("no model; training", "path", path,
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
