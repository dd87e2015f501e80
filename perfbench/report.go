package main

import (
	"context"
	"fmt"
	"io"
	"math"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/experiment"
	"repro/internal/power"
)

// reportOp replays `report -scale test -skip-slow` in-process: a cold
// build with no store, LOOCV on both counter sets, training on every phase
// for both sets, then every table and figure, rendered and discarded.
func reportOp(ctx context.Context, sc experiment.Scale, tr *tracer) (*experiment.Dataset, experiment.SuiteReport, error) {
	var ds *experiment.Dataset
	var suite experiment.SuiteReport
	if err := tr.do("experiment.build", func() (err error) {
		ds, err = experiment.Build(ctx, sc)
		return err
	}); err != nil {
		return nil, suite, err
	}
	var adv, basic *experiment.Evaluation
	if err := tr.do("experiment.loocv_adv", func() (err error) {
		adv, err = ds.EvaluateModel(counters.Advanced)
		return err
	}); err != nil {
		return nil, suite, err
	}
	if err := tr.do("experiment.loocv_basic", func() (err error) {
		basic, err = ds.EvaluateModel(counters.Basic)
		return err
	}); err != nil {
		return nil, suite, err
	}
	// The report trains on every phase through StorageAnalysis; training
	// first keeps that cost in its own span (TrainAll memoises per set).
	if err := tr.do("experiment.train_all", func() error {
		for _, set := range []counters.Set{counters.Basic, counters.Advanced} {
			if _, err := ds.TrainAll(set); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, suite, err
	}
	err := tr.do("experiment.figures", func() (err error) {
		suite, err = reportFigures(ds, adv, basic, io.Discard)
		return err
	})
	return ds, suite, err
}

// reportFigures renders every table and figure of the test-scale report
// in the order cmd/report prints them.
func reportFigures(ds *experiment.Dataset, adv, basic *experiment.Evaluation, w io.Writer) (experiment.SuiteReport, error) {
	fmt.Fprintln(w, ds.TableIII().Render())
	suite := ds.Suite(adv, basic)
	fmt.Fprintln(w, suite.Render())
	fig7, err := ds.Figure7(adv)
	if err != nil {
		return suite, err
	}
	fmt.Fprintln(w, fig7.Render())
	for _, p := range []arch.Param{arch.Width, arch.IQSize, arch.ICacheKB} {
		fmt.Fprintln(w, ds.Figure8(p).Render())
	}
	var fig3Phases []experiment.PhaseID
	for _, want := range []string{"mgrid", "swim", "parser", "vortex"} {
		if ph := ds.ProgramPhases(want); len(ph) > 0 {
			fig3Phases = append(fig3Phases, ph[0])
		}
	}
	if len(fig3Phases) > 0 {
		fig3, err := ds.Figure3(fig3Phases)
		if err != nil {
			return suite, err
		}
		fmt.Fprintln(w, fig3.Render())
	}
	for _, row := range core.TableV() {
		fmt.Fprintf(w, "%-8s %8d\n", row.Structure, row.Cycles)
	}
	rows, err := core.Figure9(power.New(arch.Profiling()))
	if err != nil {
		return suite, err
	}
	fmt.Fprintln(w, len(rows))
	for _, set := range []counters.Set{counters.Basic, counters.Advanced} {
		st, err := ds.StorageAnalysis(set)
		if err != nil {
			return suite, err
		}
		fmt.Fprint(w, st.Render())
	}
	return suite, nil
}

// checkFigure6 holds for any correct program: the geomeans are finite, the
// oracle bounds the per-program static, which bounds the best static.
func checkFigure6(s experiment.SuiteReport) error {
	for _, v := range []float64{s.GeoModelAdvanced, s.GeoModelBasic, s.GeoPerProgram, s.GeoOracle} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			return fmt.Errorf("figure 6 geomean %v is not a finite positive ratio", v)
		}
	}
	if !(s.GeoOracle >= s.GeoPerProgram && s.GeoPerProgram >= 1) {
		return fmt.Errorf("figure 6 order broken: oracle %.4f, per-program %.4f, best static 1",
			s.GeoOracle, s.GeoPerProgram)
	}
	return nil
}

// probeReport replays the report pipeline once on the dataset adaptd's
// first boot trains on, timing each stage, then replays its LOOCV one fold
// at a time. The pipeline is training-bound, and training time on a shared
// host drifted too far between runs to carry an end-to-end bound (see
// README.md), so serve-open's traced run reports its stages as per-layer
// numbers only.
func probeReport(ctx context.Context, sc experiment.Scale, v map[string]float64) error {
	tr := &tracer{on: true}
	ds, suite, err := reportOp(ctx, sc, tr)
	if err != nil {
		return fmt.Errorf("report probe: %w", err)
	}
	if err := checkFigure6(suite); err != nil {
		return fmt.Errorf("report probe: %w", err)
	}
	for name, d := range tr.layers {
		v[name+"_s"] = d.Seconds()
	}
	return probeTraining(ds, v)
}
