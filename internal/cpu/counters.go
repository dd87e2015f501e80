package cpu

import (
	"repro/internal/arch"
	"repro/internal/cache"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Histogram geometry for the temporal-histogram counters. Occupancy
// histograms use fixed absolute scales (the profiling configuration's
// maxima from Table I) so feature vectors are comparable across phases.
const (
	OccBins      = 20  // bins for ROB/IQ/LSQ/register occupancy histograms
	maxROBOcc    = 160 // Table I maxima
	maxQueueOcc  = 80
	maxRegOcc    = 160
	ALUBins      = 13 // 0..12 ALU-class units busy
	MemPortBins  = 5  // 0..4 memory ports busy
	RdPortBins   = 17 // 0..16 read ports busy
	WrPortBins   = 9  // 0..8 write ports busy
	BTBReuseBins = cache.HistBins
)

// RawCounters are the hardware counters of Table II, gathered while
// running a phase on the profiling configuration. internal/counters turns
// them into model feature vectors.
type RawCounters struct {
	// Width counters.
	ALUUsage     *stats.Histogram // ALU-class units busy per cycle
	MemPortUsage *stats.Histogram // memory ports busy per cycle

	// Queue counters.
	ROBOcc *stats.Histogram // entries occupied per cycle
	IQOcc  *stats.Histogram
	LSQOcc *stats.Histogram
	// Fraction of queue-resident instructions that were speculative
	// (an older unresolved branch existed), and the fraction of
	// dispatched queue entries that were ultimately mis-speculated
	// (wrong-path).
	IQSpecFrac     float64
	IQMisspecFrac  float64
	LSQSpecFrac    float64
	LSQMisspecFrac float64

	// Register file counters.
	IntRegUsage *stats.Histogram // integer registers in use per cycle
	FpRegUsage  *stats.Histogram
	RdPortUsage *stats.Histogram // read ports busy per cycle
	WrPortUsage *stats.Histogram // write ports busy per cycle

	// Cache counters: stack distance, block reuse, set reuse and
	// reduced-set reuse histograms per cache.
	ICache *cache.Profiler
	DCache *cache.Profiler
	L2     *cache.Profiler

	// Branch predictor counters.
	BTBReuse       *stats.Histogram // reuse distance of branch PCs
	MispredictRate float64

	// Pipeline depth counter.
	CPI float64
}

// collector accumulates RawCounters during a profiled run.
type collector struct {
	raw RawCounters

	icache *cache.Profiler
	dcache *cache.Profiler
	l2     *cache.Profiler

	// Per-cycle accumulators reset by perCycle.
	aluThisCycle int
	memThisCycle int
	rdThisCycle  int

	// Speculation sums.
	iqOccSum, iqSpecSum   uint64
	lsqOccSum, lsqSpecSum uint64
	iqDisp, iqDispWrong   uint64
	lsqDisp, lsqDispWrong uint64

	// BTB reuse tracking.
	branchClock  uint64
	lastBranchAt *cache.ReuseTable

	// Cached speculation-walk increments: the per-cycle walk over the
	// in-flight window only changes when the window does, so the sums it
	// contributes are recomputed only when runState.windowGen moves.
	specGen               uint64
	specValid             bool
	iqOccInc, iqSpecInc   uint64
	lsqOccInc, lsqSpecInc uint64

	// Occupancy bins share the windowGen cache, and consecutive cycles
	// with an identical bin signature are run-length batched into one
	// AddN per histogram. Histogram counts are integers, so batched adds
	// are exactly the per-cycle adds.
	robBin, iqBin, lsqBin, intBin, fpBin int
	lastSig                              uint64
	sigRun                               uint64
}

// newCollector builds the collector for a profiled run on cfg.
// sampledSets bounds cache profiler set sampling (0 = all sets).
func newCollector(cfg arch.Config, sampledSets int) (*collector, error) {
	mkProf := func(sizeKB, lineBytes, reducedKB int) (*cache.Profiler, error) {
		sets := sizeKB * 1024 / lineBytes / 2
		n := sampledSets
		if n <= 0 || n > sets {
			n = sets
		}
		return cache.NewProfiler(sizeKB, lineBytes, reducedKB, n)
	}
	ic, err := mkProf(cfg[arch.ICacheKB], cache.L1LineBytes, arch.Domain(arch.ICacheKB)[0])
	if err != nil {
		return nil, err
	}
	dc, err := mkProf(cfg[arch.DCacheKB], cache.L1LineBytes, arch.Domain(arch.DCacheKB)[0])
	if err != nil {
		return nil, err
	}
	l2, err := mkProf(cfg[arch.L2CacheKB], cache.L2LineBytes, arch.Domain(arch.L2CacheKB)[0])
	if err != nil {
		return nil, err
	}
	c := &collector{
		icache:       ic,
		dcache:       dc,
		l2:           l2,
		lastBranchAt: cache.NewReuseTable(256),
	}
	c.raw = RawCounters{
		ALUUsage:     stats.NewHistogram(ALUBins),
		MemPortUsage: stats.NewHistogram(MemPortBins),
		ROBOcc:       stats.NewHistogram(OccBins),
		IQOcc:        stats.NewHistogram(OccBins),
		LSQOcc:       stats.NewHistogram(OccBins),
		IntRegUsage:  stats.NewHistogram(OccBins),
		FpRegUsage:   stats.NewHistogram(OccBins),
		RdPortUsage:  stats.NewHistogram(RdPortBins),
		WrPortUsage:  stats.NewHistogram(WrPortBins),
		ICache:       ic,
		DCache:       dc,
		L2:           l2,
		BTBReuse:     stats.NewHistogram(BTBReuseBins),
	}
	return c, nil
}

// occBin maps an occupancy value to its histogram bin on a fixed absolute
// scale.
func occBin(occ, maxOcc int) int {
	if occ < 0 {
		occ = 0
	}
	return occ * OccBins / (maxOcc + 1)
}

// dispatched records queue-entry provenance for mis-speculation fractions.
func (c *collector) dispatched(st *runState, e *entry) {
	c.iqDisp++
	if e.wrongPath {
		c.iqDispWrong++
	}
	if e.inLSQ {
		c.lsqDisp++
		if e.wrongPath {
			c.lsqDispWrong++
		}
	}
}

// issued records per-cycle port and unit usage.
func (c *collector) issued(st *runState, e *entry, nsrc int) {
	c.rdThisCycle += nsrc
	switch e.inst.Op {
	case trace.Load, trace.Store:
		c.memThisCycle++
	default:
		c.aluThisCycle++
	}
}

// branchFetched records the BTB reuse distance stream.
func (c *collector) branchFetched(in trace.Inst) {
	c.branchClock++
	if last, ok := c.lastBranchAt.Swap(uint64(in.PC), c.branchClock); ok {
		c.raw.BTBReuse.Add(stats.Log2Bin(c.branchClock-last, BTBReuseBins-1))
	} else {
		c.raw.BTBReuse.Add(BTBReuseBins - 1)
	}
}

// perCycle samples occupancy and usage histograms once per cycle.
func (c *collector) perCycle(s *Sim, st *runState) {
	// Speculation occupancy and queue-occupancy bins: both are pure in the
	// window contents, so they are recomputed only when windowGen reports
	// a change (dispatch, issue, commit, resolve or flush).
	if !c.specValid || c.specGen != st.windowGen {
		c.robBin = occBin(st.robCount, maxROBOcc)
		c.iqBin = occBin(st.iqCount, maxQueueOcc)
		c.lsqBin = occBin(st.lsqCount, maxQueueOcc)
		c.intBin = occBin(trace.NumIntRegs+st.allocInt, maxRegOcc)
		c.fpBin = occBin(trace.NumFpRegs+st.allocFp, maxRegOcc)
		c.iqOccInc, c.iqSpecInc, c.lsqOccInc, c.lsqSpecInc = 0, 0, 0, 0
		if st.robCount > 0 {
			spec := false
			idx := int(st.headIdx)
			n := len(st.rob)
			for seq := st.headSeq; seq < st.nextSeq; seq++ {
				e := &st.rob[idx]
				idx++
				if idx == n {
					idx = 0
				}
				if e.inIQ {
					c.iqOccInc++
					if spec || e.wrongPath {
						c.iqSpecInc++
					}
				}
				if e.inLSQ {
					c.lsqOccInc++
					if spec || e.wrongPath {
						c.lsqSpecInc++
					}
				}
				if e.inst.Op == trace.Branch && !e.resolved && !e.wrongPath {
					spec = true
				}
			}
		}
		c.specGen = st.windowGen
		c.specValid = true
	}
	c.iqOccSum += c.iqOccInc
	c.iqSpecSum += c.iqSpecInc
	c.lsqOccSum += c.lsqOccInc
	c.lsqSpecSum += c.lsqSpecInc

	rd := c.rdThisCycle
	if rd >= RdPortBins {
		rd = RdPortBins - 1
	}
	wb := int(st.wbUsed[st.cycle%wbWindow])
	if wb >= WrPortBins {
		wb = WrPortBins - 1
	}
	alu := c.aluThisCycle
	if alu >= ALUBins {
		alu = ALUBins - 1
	}
	mem := c.memThisCycle
	if mem >= MemPortBins {
		mem = MemPortBins - 1
	}
	c.aluThisCycle, c.memThisCycle, c.rdThisCycle = 0, 0, 0

	// Pack all nine bin indices into one signature; identical consecutive
	// cycles extend the current run instead of touching nine histograms.
	sig := uint64(c.robBin) | uint64(c.iqBin)<<5 | uint64(c.lsqBin)<<10 |
		uint64(c.intBin)<<15 | uint64(c.fpBin)<<20 |
		uint64(rd)<<25 | uint64(wb)<<30 | uint64(alu)<<34 | uint64(mem)<<38
	if sig == c.lastSig && c.sigRun > 0 {
		c.sigRun++
		return
	}
	c.flushRun()
	c.lastSig = sig
	c.sigRun = 1
}

// flushRun commits the pending histogram run (n identical cycles) with one
// AddN per histogram — bitwise the same totals as n per-cycle Adds.
func (c *collector) flushRun() {
	n := c.sigRun
	if n == 0 {
		return
	}
	sig := c.lastSig
	c.raw.ROBOcc.AddN(int(sig&31), n)
	c.raw.IQOcc.AddN(int(sig>>5&31), n)
	c.raw.LSQOcc.AddN(int(sig>>10&31), n)
	c.raw.IntRegUsage.AddN(int(sig>>15&31), n)
	c.raw.FpRegUsage.AddN(int(sig>>20&31), n)
	c.raw.RdPortUsage.AddN(int(sig>>25&31), n)
	c.raw.WrPortUsage.AddN(int(sig>>30&15), n)
	c.raw.ALUUsage.AddN(int(sig>>34&15), n)
	c.raw.MemPortUsage.AddN(int(sig>>38&7), n)
	c.sigRun = 0
}

// observeData feeds a data address to the D-cache profiler and, since the
// unified L2 sees the union of both L1 streams, to the L2 profiler.
func (c *collector) observeData(addr uint32) {
	c.dcache.Observe(addr)
	c.l2.Observe(addr)
}

// observeFetch feeds an instruction address to the I-cache and L2
// profilers.
func (c *collector) observeFetch(pc uint32) {
	c.icache.Observe(pc)
	c.l2.Observe(pc)
}

// finish computes the scalar counters and returns the finished set. Its
// cache profiles hold only their histograms and observation counts: the
// collector is per run, so nothing reads the collection tables again.
func (c *collector) finish(s *Sim, res *Result) *RawCounters {
	c.flushRun()
	if c.iqOccSum > 0 {
		c.raw.IQSpecFrac = float64(c.iqSpecSum) / float64(c.iqOccSum)
	}
	if c.lsqOccSum > 0 {
		c.raw.LSQSpecFrac = float64(c.lsqSpecSum) / float64(c.lsqOccSum)
	}
	if c.iqDisp > 0 {
		c.raw.IQMisspecFrac = float64(c.iqDispWrong) / float64(c.iqDisp)
	}
	if c.lsqDisp > 0 {
		c.raw.LSQMisspecFrac = float64(c.lsqDispWrong) / float64(c.lsqDisp)
	}
	if res.BranchLookups > 0 {
		c.raw.MispredictRate = float64(res.Mispredicts) / float64(res.BranchLookups)
	}
	if res.Committed > 0 {
		c.raw.CPI = float64(res.Cycles) / float64(res.Committed)
	}
	out := c.raw
	out.ICache = c.icache.Finish()
	out.DCache = c.dcache.Finish()
	out.L2 = c.l2.Finish()
	return &out
}

// EmptyRawCounters returns a zero-valued but fully allocated counter set
// with the production histogram geometry. It exists so feature extractors
// can probe dimensionality without running a simulation.
func EmptyRawCounters() *RawCounters {
	c, err := newCollector(arch.Profiling(), 0)
	if err != nil {
		panic(err) // the profiling configuration is always valid
	}
	return c.finish(nil, &Result{})
}
