package main

import (
	"context"
	"io"
	"log/slog"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"repro/internal/counters"
	"repro/internal/experiment"
	"repro/internal/serve"
)

// TestOpenLoopAdmission boots adaptd's -admission configuration
// in-process and offers it open-loop load: a first boot trains a
// basic-set model at TestScale, and 900 Poisson arrivals at 600 rps draw
// from a Zipf(1.1) pool under the default share-cap ladder. No request
// may fail, and every class must show up with measured latency
// quantiles. How many requests the ladder sheds depends on how arrivals
// overlap, so it is not asserted here;
// serve.TestAdmissionShareCapProtectsInteractive holds the shed order.
func TestOpenLoopAdmission(t *testing.T) {
	path := filepath.Join(t.TempDir(), "adaptd.model")
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	pred, trained, err := bootPredictor(context.Background(), logger, path, counters.Basic, experiment.TestScale(), "")
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
	srv := serve.New(eng,
		serve.WithModelPath(path),
		serve.WithCacheSize(4096),
		serve.WithAdmission(serve.DefaultAdmissionConfig()),
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
	if len(rep.Classes) != int(serve.NumClasses) {
		t.Errorf("report has %d class rows, want %d", len(rep.Classes), serve.NumClasses)
	}
	for _, c := range rep.Classes {
		if c.P50 <= 0 || c.P99 <= 0 {
			t.Errorf("class %s: p50=%v p99=%v, want both measured", c.Class, c.P50, c.P99)
		}
	}
}
