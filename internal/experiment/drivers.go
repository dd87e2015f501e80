package experiment

import (
	"fmt"
	"strings"

	"repro/internal/arch"
	"repro/internal/counters"
	"repro/internal/cpu"
	"repro/internal/trace"
)

// ---------------------------------------------------------------------------
// Figure 1: how the optimal IQ and RF sizes change over a program's
// lifetime, for pipeline widths 8 and 4.

// Figure1Point is one time step: the efficiency-optimal IQ and RF sizes at
// each width.
type Figure1Point struct {
	Interval int
	BestIQ   map[int]int // width -> best IQ size
	BestRF   map[int]int // width -> best RF size
}

// Figure1Report is the optimal-size time series for one program.
type Figure1Report struct {
	Program string
	Points  []Figure1Point
}

// Figure1 sweeps the IQ and RF sizes per interval of the program's
// phase sequence at widths 4 and 8, everything else held at the baseline.
func Figure1(program string, intervalsPerPhase, intervalInsts, warmup int) (*Figure1Report, error) {
	rep := &Figure1Report{Program: program}
	widths := []int{4, 8}
	idx := 0
	for ph := 0; ph < trace.PhasesPerProgram; ph++ {
		g, err := trace.NewGenerator(program, ph)
		if err != nil {
			return nil, err
		}
		for iv := 0; iv < intervalsPerPhase; iv++ {
			insts := g.Interval(intervalInsts)
			pt := Figure1Point{Interval: idx, BestIQ: map[int]int{}, BestRF: map[int]int{}}
			idx++
			for _, w := range widths {
				base := arch.Baseline().With(arch.Width, w)
				bi, err := bestValue(insts, base, arch.IQSize, warmup)
				if err != nil {
					return nil, err
				}
				br, err := bestValue(insts, base, arch.RFSize, warmup)
				if err != nil {
					return nil, err
				}
				pt.BestIQ[w] = bi
				pt.BestRF[w] = br
			}
			rep.Points = append(rep.Points, pt)
		}
	}
	return rep, nil
}

// bestValue returns the value of p maximising efficiency on insts with all
// other parameters from base.
func bestValue(insts []trace.Inst, base arch.Config, p arch.Param, warmup int) (int, error) {
	bestEff, bestV := -1.0, 0
	for _, v := range arch.Domain(p) {
		sim, err := cpu.New(base.With(p, v))
		if err != nil {
			return 0, err
		}
		res, err := sim.Run(cpu.NewSliceSource(insts), len(insts), cpu.Options{WarmupInsts: warmup})
		if err != nil {
			return 0, err
		}
		if res.Efficiency > bestEff {
			bestEff, bestV = res.Efficiency, v
		}
	}
	return bestV, nil
}

// Render formats the time series.
func (r *Figure1Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 1 (%s): optimal structure sizes over time\n", r.Program)
	fmt.Fprintf(&b, "%8s %8s %8s %8s %8s\n", "interval", "IQ(w=8)", "IQ(w=4)", "RF(w=8)", "RF(w=4)")
	for _, pt := range r.Points {
		fmt.Fprintf(&b, "%8d %8d %8d %8d %8d\n",
			pt.Interval, pt.BestIQ[8], pt.BestIQ[4], pt.BestRF[8], pt.BestRF[4])
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Figure 3: load/store queue counters and efficiency sweeps for example
// phases.

// Figure3Phase is one subfigure: the LSQ-size efficiency curve for the
// phase plus the profiling counters a controller would see.
type Figure3Phase struct {
	ID          PhaseID
	LSQValues   []int
	Efficiency  []float64 // normalised to the best point of the sweep
	BestLSQ     int
	UsageHist   []float64 // normalised LSQ occupancy histogram
	SpecFrac    float64
	MisspecFrac float64
}

// Figure3Report collects the example phases.
type Figure3Report struct {
	Phases []Figure3Phase
}

// Figure3 sweeps the LSQ size on each phase's best-found configuration and
// reports the profiling counters (the paper uses mgrid, swim, parser and
// vortex phases).
func (ds *Dataset) Figure3(ids []PhaseID) (*Figure3Report, error) {
	rep := &Figure3Report{}
	for _, id := range ids {
		base, ok := ds.Best[id]
		if !ok {
			return nil, fmt.Errorf("experiment: phase %s not in dataset", id)
		}
		ph := Figure3Phase{ID: id, LSQValues: arch.Domain(arch.LSQSize)}
		bestEff := -1.0
		for _, v := range ph.LSQValues {
			res, err := ds.Result(id, base.With(arch.LSQSize, v))
			if err != nil {
				return nil, err
			}
			ph.Efficiency = append(ph.Efficiency, res.Efficiency)
			if res.Efficiency > bestEff {
				bestEff = res.Efficiency
				ph.BestLSQ = v
			}
		}
		for i := range ph.Efficiency {
			if bestEff > 0 {
				ph.Efficiency[i] /= bestEff
			}
		}
		prof := ds.ProfileRes[id]
		if prof == nil || prof.Counters == nil {
			return nil, fmt.Errorf("experiment: phase %s has no profiling counters", id)
		}
		ph.UsageHist = prof.Counters.LSQOcc.Normalized()
		ph.SpecFrac = prof.Counters.LSQSpecFrac
		ph.MisspecFrac = prof.Counters.LSQMisspecFrac
		rep.Phases = append(rep.Phases, ph)
	}
	return rep, nil
}

// Render formats the subfigures.
func (r *Figure3Report) Render() string {
	var b strings.Builder
	b.WriteString("Figure 3: LSQ efficiency sweeps and counters per phase\n")
	for _, ph := range r.Phases {
		fmt.Fprintf(&b, "%s: best LSQ=%d  spec=%.0f%%  mis-spec=%.0f%%\n",
			ph.ID, ph.BestLSQ, 100*ph.SpecFrac, 100*ph.MisspecFrac)
		b.WriteString("  size:eff ")
		for i, v := range ph.LSQValues {
			fmt.Fprintf(&b, " %d:%.2f", v, ph.Efficiency[i])
		}
		b.WriteString("\n")
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Table IV: dynamic set sampling levels that preserve prediction accuracy.

// TableIVRow is one sampling level's outcome.
type TableIVRow struct {
	SampledSets int
	// Agreement is the mean fraction of the fourteen parameters whose
	// prediction from sampled-profile features matches the full-profile
	// prediction.
	Agreement float64
	// EffPreserved is the mean ratio of the sampled-profile prediction's
	// efficiency to the full-profile prediction's efficiency — the
	// criterion that matters: sampling may flip irrelevant parameters
	// without costing anything.
	EffPreserved float64
}

// TableIVReport is the sampling sweep plus the chosen level.
type TableIVReport struct {
	Rows      []TableIVRow
	Chosen    int     // smallest level with Agreement >= Target
	Target    float64 // agreement target
	PaperNote string
}

// TableIV sweeps global profiling set-sampling levels on a subset of
// phases and finds the smallest level that keeps the model's predictions
// in agreement with full profiling. (The paper tunes per-cache, per-feature
// sampling — Table IV; our profiler exposes one global level, so this
// reproduces the mechanism and the conclusion that aggressive sampling
// preserves accuracy.)
func (ds *Dataset) TableIV(levels []int, maxPhases int) (*TableIVReport, error) {
	pred, err := ds.TrainAll(counters.Advanced)
	if err != nil {
		return nil, err
	}
	phases := ds.Phases
	if maxPhases > 0 && len(phases) > maxPhases {
		phases = phases[:maxPhases]
	}
	// Reference predictions come from *unsampled* profiling (all sets
	// monitored), so each sweep level is judged against the true full
	// histograms rather than the dataset's own sampled ones.
	full := map[PhaseID]arch.Config{}
	for _, id := range phases {
		res, err := ds.simulate(id, arch.Profiling(), cpu.Options{
			Collect:     true,
			WarmupInsts: ds.Scale.WarmupInsts,
		}, false)
		if err != nil {
			return nil, err
		}
		full[id] = pred.Predict(counters.Features(res, counters.Advanced))
	}
	rep := &TableIVReport{Target: 0.95, PaperNote: "paper Table IV: 4..256 sets suffice per cache/feature"}
	rep.Chosen = -1
	for _, lvl := range levels {
		agree, preserved := 0.0, 0.0
		for _, id := range phases {
			res, err := ds.simulate(id, arch.Profiling(), cpu.Options{
				Collect:     true,
				SampledSets: lvl,
				WarmupInsts: ds.Scale.WarmupInsts,
			}, false)
			if err != nil {
				return nil, err
			}
			pcfg := pred.Predict(counters.Features(res, counters.Advanced))
			same := 0
			for p := arch.Param(0); p < arch.NumParams; p++ {
				if pcfg[p] == full[id][p] {
					same++
				}
			}
			agree += float64(same) / float64(arch.NumParams)
			sres, err := ds.Result(id, pcfg)
			if err != nil {
				return nil, err
			}
			fres, err := ds.Result(id, full[id])
			if err != nil {
				return nil, err
			}
			if fres.Efficiency > 0 {
				r := sres.Efficiency / fres.Efficiency
				if r > 1 {
					r = 1 // sampling got lucky; cap at parity
				}
				preserved += r
			}
		}
		agree /= float64(len(phases))
		preserved /= float64(len(phases))
		rep.Rows = append(rep.Rows, TableIVRow{SampledSets: lvl, Agreement: agree, EffPreserved: preserved})
		if rep.Chosen < 0 && preserved >= rep.Target {
			rep.Chosen = lvl
		}
	}
	return rep, nil
}

// Render formats the sweep.
func (r *TableIVReport) Render() string {
	var b strings.Builder
	b.WriteString("Table IV: set sampling vs prediction quality\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %4d sets: %.1f%% parameter agreement, %.1f%% efficiency preserved\n",
			row.SampledSets, 100*row.Agreement, 100*row.EffPreserved)
	}
	fmt.Fprintf(&b, "  chosen: %d sets (efficiency target %.0f%%); %s\n", r.Chosen, 100*r.Target, r.PaperNote)
	return b.String()
}

// ---------------------------------------------------------------------------
// Model storage (paper §VIII): 8-bit weights.

// StorageReport quantifies the predictor's hardware cost.
type StorageReport struct {
	Set          counters.Set
	Weights      int
	QuantBytes   int
	AgreementPct float64 // quantised vs float predictions over all phases
}

// StorageAnalysis trains on all phases, quantises to 8 bits, and measures
// how often the 8-bit predictor matches the float one.
func (ds *Dataset) StorageAnalysis(set counters.Set) (*StorageReport, error) {
	pred, err := ds.TrainAll(set)
	if err != nil {
		return nil, err
	}
	q := pred.Quantize()
	same, total := 0, 0
	for _, id := range ds.Phases {
		f := ds.features(set)[id]
		a, b := pred.Predict(f), q.Predict(f)
		for p := arch.Param(0); p < arch.NumParams; p++ {
			if a[p] == b[p] {
				same++
			}
			total++
		}
	}
	return &StorageReport{
		Set:          set,
		Weights:      pred.WeightCount(),
		QuantBytes:   q.StorageBytes(),
		AgreementPct: 100 * float64(same) / float64(total),
	}, nil
}

// Render formats the report.
func (r *StorageReport) Render() string {
	return fmt.Sprintf("Model storage (%s counters): %d weights, %d bytes at 8 bits, %.1f%% prediction agreement with float (paper: ~2000 weights / 2KB)\n",
		r.Set, r.Weights, r.QuantBytes, r.AgreementPct)
}
