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

	// A queue resident is speculative when an older correct-path branch
	// is unresolved (wrong-path entries always are: they follow the
	// unresolved branch that fetched them). The speculation counts are
	// kept incrementally: specFrom is the seq of the oldest unresolved
	// correct-path branch (noBranch when there is none), and iqNonSpec
	// and lsqNonSpec count the IQ and LSQ residents at or before it. The
	// boundary moves forward only when its branch resolves; a flush
	// squashes only entries younger than the resolving branch, which are
	// past the boundary already.
	specFrom              uint64
	iqNonSpec, lsqNonSpec int

	// BTB reuse tracking.
	branchClock  uint64
	lastBranchAt *cache.ReuseTable

	// Consecutive cycles with an identical bin signature are run-length
	// batched into one AddN per histogram. Histogram counts are integers,
	// so batched adds are exactly the per-cycle adds.
	lastSig uint64
	sigRun  uint64
}

// noBranch is collector.specFrom when no correct-path branch is
// unresolved: every resident is at or before it.
const noBranch = ^uint64(0)

// checkCycle, when set, is called whenever a collecting run samples a
// single cycle (every stepped cycle). Tests use it to hold the
// incremental counts to a walk of the window.
var checkCycle func(st *runState)

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
		specFrom:     noBranch,
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

// dispatched records queue-entry provenance for mis-speculation
// fractions, and counts the entry as non-speculative when no unresolved
// branch precedes it (it is the youngest, so that holds only while there
// is no boundary); a correct-path branch dispatched then becomes the
// boundary.
func (c *collector) dispatched(e *entry, seq uint64) {
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
	if c.specFrom == noBranch {
		c.iqNonSpec++
		if e.inLSQ {
			c.lsqNonSpec++
		}
		if e.op == trace.Branch && !e.wrongPath {
			c.specFrom = seq
		}
	}
}

// issued records per-cycle port and unit usage; the entry leaves the IQ.
func (c *collector) issued(e *entry, seq uint64, nsrc int) {
	c.rdThisCycle += nsrc
	switch e.op {
	case trace.Load, trace.Store:
		c.memThisCycle++
	default:
		c.aluThisCycle++
	}
	if seq <= c.specFrom {
		c.iqNonSpec--
	}
}

// resolved moves the speculation boundary when the correct-path branch
// seq resolves (after the flush, if it was mispredicted): the residents up
// to the next unresolved correct-path branch stop being speculative.
func (c *collector) resolved(st *runState, seq uint64) {
	if seq != c.specFrom {
		return
	}
	c.specFrom = noBranch
	n := len(st.rob)
	idx := int(seq % uint64(n))
	for q := seq + 1; q < st.nextSeq; q++ {
		idx++
		if idx == n {
			idx = 0
		}
		e := &st.rob[idx]
		if e.inIQ {
			c.iqNonSpec++
		}
		if e.inLSQ {
			c.lsqNonSpec++
		}
		if e.op == trace.Branch && !e.resolved && !e.wrongPath {
			c.specFrom = q
			return
		}
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

// perCycle samples occupancy and usage histograms for one stepped cycle.
func (c *collector) perCycle(st *runState) {
	if checkCycle != nil {
		checkCycle(st)
	}
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
	c.sample(st, rd, wb, alu, mem, 1)
}

// idle samples n fast-forwarded cycles: nothing issued or wrote back in
// them and the window did not change.
func (c *collector) idle(st *runState, n uint64) {
	c.sample(st, 0, 0, 0, 0, n)
}

// sample adds n cycles with the given port and unit usage and the
// window's current occupancy.
func (c *collector) sample(st *runState, rd, wb, alu, mem int, n uint64) {
	iq, lsq := uint64(st.iqCount), uint64(st.lsqCount)
	c.iqOccSum += n * iq
	c.iqSpecSum += n * (iq - uint64(c.iqNonSpec))
	c.lsqOccSum += n * lsq
	c.lsqSpecSum += n * (lsq - uint64(c.lsqNonSpec))

	// Pack all nine bin indices into one signature; identical consecutive
	// cycles extend the current run instead of touching nine histograms.
	sig := uint64(occBin(st.robCount, maxROBOcc)) |
		uint64(occBin(st.iqCount, maxQueueOcc))<<5 |
		uint64(occBin(st.lsqCount, maxQueueOcc))<<10 |
		uint64(occBin(trace.NumIntRegs+st.allocInt, maxRegOcc))<<15 |
		uint64(occBin(trace.NumFpRegs+st.allocFp, maxRegOcc))<<20 |
		uint64(rd)<<25 | uint64(wb)<<30 | uint64(alu)<<34 | uint64(mem)<<38
	if sig == c.lastSig && c.sigRun > 0 {
		c.sigRun += n
		return
	}
	c.flushRun()
	c.lastSig = sig
	c.sigRun = n
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
// collector is per run, so nothing reads the collection tables again, and
// they go back to the cache package for the next profiled run.
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
	c.icache.Release()
	c.dcache.Release()
	c.l2.Release()
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
