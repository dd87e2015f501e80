package main

import (
	"context"
	"io"
	"log/slog"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/counters"
	"repro/internal/serve"
)

// TestOpenLoopAdmissionShadow boots adaptd's admission and shadow
// configuration in-process and offers it open-loop load: a first boot
// trains a basic-set model at TestScale, the same file is mounted as a
// self-shadow, -admission-rate background=20:5 rate-limits only the
// background class, and 900 Poisson arrivals at 600 rps draw from a
// Zipf(1.1) pool. The background class's share of that load (about
// 60/s) far exceeds its 20/s bucket, so it must shed, while interactive
// and batch shed nothing; no request may fail, every class must have
// measured latency quantiles, and the self-shadow must agree with the
// active model on every decision.
func TestOpenLoopAdmissionShadow(t *testing.T) {
	path := filepath.Join(t.TempDir(), "adaptd.model")
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	pred, trained, err := bootPredictor(context.Background(), logger, path, counters.Basic, "test", "")
	if err != nil {
		t.Fatal(err)
	}
	if !trained {
		t.Fatal("first boot loaded a model instead of training one")
	}
	eng, err := serve.NewEngine(pred, false)
	if err != nil {
		t.Fatal(err)
	}
	shadow, err := loadShadow(path, counters.Basic, false)
	if err != nil {
		t.Fatal(err)
	}
	class, pol, err := parseRate("background=20:5")
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(eng,
		serve.WithModelPath(path),
		serve.WithCacheSize(4096),
		serve.WithAdmission(admissionConfig(0, map[serve.Class]serve.ClassPolicy{class: pol})),
		serve.WithShadow(shadow, path),
	)
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	lg := serve.LoadGen{
		Requests: 900,
		Seed:     1,
		Pool:     serve.SyntheticFeatures(eng.Dim(), 64, 1),
		Mode:     "open",
		RPS:      600,
		ZipfS:    1.1,
	}
	rep, err := lg.Run(ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 900 || rep.ClientErr != 0 || rep.ServerErr != 0 || rep.Transport != 0 {
		t.Errorf("requests=%d clientErr=%d serverErr=%d transportErr=%d, want 900 requests and no errors",
			rep.Requests, rep.ClientErr, rep.ServerErr, rep.Transport)
	}
	shed := map[string]int{}
	for _, c := range rep.Classes {
		shed[c.Class] = c.Shed
		if c.P50 <= 0 || c.P99 <= 0 {
			t.Errorf("class %s: p50=%v p99=%v, want both measured", c.Class, c.P50, c.P99)
		}
	}
	if len(rep.Classes) != int(serve.NumClasses) {
		t.Errorf("report has %d class rows, want %d", len(rep.Classes), serve.NumClasses)
	}
	if shed[serve.ClassBackground.String()] == 0 {
		t.Error("background class did not shed under a 20/s bucket")
	}
	for _, c := range []serve.Class{serve.ClassInteractive, serve.ClassBatch} {
		if n := shed[c.String()]; n != 0 {
			t.Errorf("%s class shed %d requests; only background may shed", c, n)
		}
	}

	if !srv.ShadowDrain(30 * time.Second) {
		t.Fatal("shadow queue did not drain")
	}
	sh := srv.ShadowStats()
	if sh == nil || sh.Compared == 0 {
		t.Fatalf("shadow compared nothing: %+v", sh)
	}
	if sh.ParamAgreement != 1 || sh.DecisionMatchRate != 1 {
		t.Errorf("self-shadow paramAgreement=%v decisionMatch=%v over %d decisions, want exactly 1",
			sh.ParamAgreement, sh.DecisionMatchRate, sh.Compared)
	}
}
