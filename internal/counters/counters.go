// Package counters converts the raw hardware counters gathered on the
// profiling configuration (internal/cpu.RawCounters) into the feature
// vectors consumed by the predictive model.
//
// Two sets are provided, mirroring the paper's Figure 4 comparison:
//
//   - Basic: the standard performance counters available on processors of
//     the era — average occupancies, access and miss rates, IPC. Scalars
//     only.
//   - Advanced: the paper's novel temporal-histogram counters (Table II) —
//     full usage histograms for the width, queues and register file, stack
//     and reuse distance histograms for the caches, BTB reuse and
//     speculation fractions.
//
// All features are normalised into roughly [0, 1] so a single regulariser
// works across dimensions, and every vector carries a trailing constant
// bias feature.
package counters

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/stats"
)

// Set selects which feature encoding to build.
type Set int

// Feature sets.
const (
	Basic Set = iota
	Advanced
)

// String names the set.
func (s Set) String() string {
	switch s {
	case Basic:
		return "basic"
	case Advanced:
		return "advanced"
	default:
		return fmt.Sprintf("Set(%d)", int(s))
	}
}

// ParseSet returns the set String names: advanced or basic.
func ParseSet(name string) (Set, error) {
	for _, s := range []Set{Advanced, Basic} {
		if name == s.String() {
			return s, nil
		}
	}
	return 0, fmt.Errorf("unknown counter set %q (want advanced or basic)", name)
}

// Features builds the feature vector for res under the given set. The
// result must come from a run with counter collection enabled
// (res.Counters != nil); Features panics otherwise, as that is a
// harness-programming error.
func Features(res *cpu.Result, set Set) []float64 {
	if res.Counters == nil {
		panic("counters: result has no collected counters; run with Options.Collect")
	}
	switch set {
	case Basic:
		return basicFeatures(res)
	default:
		return advancedFeatures(res)
	}
}

// Dim returns the dimensionality of the given set's vectors.
var dimCache [2]int

// Dim returns the feature dimension of the set. It is constant per set.
func Dim(set Set) int {
	i := 0
	if set == Advanced {
		i = 1
	}
	if dimCache[i] == 0 {
		dimCache[i] = len(Features(probeResult(), set))
	}
	return dimCache[i]
}

// probeResult builds a minimal synthetic result for dimension probing.
func probeResult() *cpu.Result {
	return &cpu.Result{Counters: cpu.EmptyRawCounters()}
}

// rate returns num/den, 0 when den is 0.
func rate(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// basicFeatures: conventional scalar performance counters.
func basicFeatures(res *cpu.Result) []float64 {
	c := res.Counters
	insts := res.Committed
	f := []float64{
		c.ROBOcc.Mean() / float64(cpu.OccBins),      // avg ROB occupancy
		c.IQOcc.Mean() / float64(cpu.OccBins),       // avg IQ occupancy
		c.LSQOcc.Mean() / float64(cpu.OccBins),      // avg LSQ occupancy
		c.ALUUsage.Mean() / float64(cpu.ALUBins),    // avg ALU ops per cycle
		c.IntRegUsage.Mean() / float64(cpu.OccBins), // avg int RF usage
		c.FpRegUsage.Mean() / float64(cpu.OccBins),  // avg fp RF usage
		clamp01(rate(res.L1IAccesses, insts)),       // I-cache access rate
		clamp01(rate(res.L1IMisses, res.L1IAccesses)),
		clamp01(rate(res.L1DAccesses, insts)), // D-cache access rate
		clamp01(rate(res.L1DMisses, res.L1DAccesses)),
		clamp01(rate(res.L2Accesses, insts)), // L2 access rate
		clamp01(rate(res.L2Misses, res.L2Accesses)),
		clamp01(rate(res.BranchLookups, insts)), // bpred access rate
		c.MispredictRate,
		ipcFeature(c.CPI),
		1, // bias
	}
	return f
}

// advancedFeatures: the temporal-histogram counter set of Table II.
func advancedFeatures(res *cpu.Result) []float64 {
	c := res.Counters
	f := make([]float64, 0, 512)
	// Width.
	f = appendHist(f, c.ALUUsage)
	f = appendHist(f, c.MemPortUsage)
	// Queues.
	f = appendHist(f, c.ROBOcc)
	f = appendHist(f, c.IQOcc)
	f = appendHist(f, c.LSQOcc)
	f = append(f, c.IQSpecFrac, c.IQMisspecFrac, c.LSQSpecFrac, c.LSQMisspecFrac)
	// Register file.
	f = appendHist(f, c.IntRegUsage)
	f = appendHist(f, c.FpRegUsage)
	f = appendHist(f, c.RdPortUsage)
	f = appendHist(f, c.WrPortUsage)
	// Caches: stack distance, block reuse, set reuse, reduced-set reuse.
	for _, p := range []*cache.Profiler{c.ICache, c.DCache, c.L2} {
		f = appendHist(f, p.StackDist)
		f = appendHist(f, p.BlockReuse)
		f = appendHist(f, p.SetReuse)
		f = appendHist(f, p.ReducedSets)
	}
	// Branch predictor.
	f = appendHist(f, c.BTBReuse)
	f = append(f, c.MispredictRate)
	// Pipeline depth: cycles per instruction.
	f = append(f, ipcFeature(c.CPI))
	f = append(f, 1) // bias
	return f
}

// appendHist appends the normalised histogram bins — the values
// h.Normalized() returns, written straight into f.
func appendHist(f []float64, h *stats.Histogram) []float64 {
	for _, c := range h.Counts {
		v := 0.0
		if h.Total != 0 {
			v = float64(c) / float64(h.Total)
		}
		f = append(f, v)
	}
	return f
}

// ipcFeature maps CPI into (0, 1]: IPC normalised by the maximum width.
func ipcFeature(cpi float64) float64 {
	if cpi <= 0 {
		return 0
	}
	v := (1 / cpi) / 8
	return clamp01(v)
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
