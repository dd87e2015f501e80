// Package cpu implements the cycle-level out-of-order superscalar
// processor simulator underlying every experiment: the stand-in for the
// paper's modified SimpleScalar/Wattch (RUU replaced by explicit reorder
// buffer, issue queue and register files, exactly as the paper describes).
//
// The pipeline models, per cycle: fetch (I-cache, branch prediction,
// in-flight branch limit, wrong-path injection after a misprediction),
// rename/dispatch (ROB/IQ/LSQ/physical-register allocation), issue
// (oldest-first, operand readiness, functional-unit and register-file
// read-port contention), execution (class latencies, cache hierarchy for
// loads), writeback (write-port contention) and in-order commit. Dynamic
// energy is charged per event and leakage per cycle through
// internal/power; optional counter collection builds the paper's temporal
// histograms (internal/cpu's RawCounters, consumed by internal/counters).
//
// The simulator is trace-driven with wrong-path injection: when the
// predictor disagrees with the trace outcome, synthetic wrong-path
// instructions (replays of recent fetch history) occupy resources and
// pollute caches until the branch resolves, then are squashed.
package cpu

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/power"
	"repro/internal/trace"
)

// Source supplies the dynamic instruction stream. trace.Generator
// implements it.
type Source interface {
	Next() trace.Inst
}

// SliceSource replays a fixed instruction slice, looping at the end, so
// the identical stream can be run under many configurations.
type SliceSource struct {
	insts []trace.Inst
	pos   int
}

// NewSliceSource wraps insts; it panics on an empty slice.
func NewSliceSource(insts []trace.Inst) *SliceSource {
	if len(insts) == 0 {
		panic("cpu: empty instruction slice")
	}
	return &SliceSource{insts: insts}
}

// Next returns the next instruction, wrapping around at the end.
func (s *SliceSource) Next() trace.Inst {
	in := s.insts[s.pos]
	s.pos++
	if s.pos == len(s.insts) {
		s.pos = 0
	}
	return in
}

// Reset rewinds the source to the beginning of the slice.
func (s *SliceSource) Reset() { s.pos = 0 }

// Options controls a simulation run.
type Options struct {
	// Collect enables temporal-histogram counter collection (used on the
	// profiling configuration). It slows simulation.
	Collect bool
	// SampledSets, when Collect is set, bounds the number of cache sets
	// monitored per profiler (dynamic set sampling, Table IV). Zero means
	// monitor all sets.
	SampledSets int
	// StartStall injects a pipeline stall of the given number of cycles at
	// the start of the run, and FlushCaches invalidates cache contents
	// first — together they model reconfiguration overhead (Table V).
	StartStall  uint64
	FlushCaches bool
	// ExtraEnergyPJ is charged to the clock structure up front (models
	// reconfiguration energy).
	ExtraEnergyPJ float64
	// WarmupInsts executes this many instructions before measurement
	// begins, warming caches and predictor state (the paper warms for 10M
	// instructions; scaled runs use proportionally less).
	WarmupInsts int
}

// Result summarises one simulation run.
type Result struct {
	Config    arch.Config
	Cycles    uint64
	Committed uint64 // correct-path instructions committed
	Fetched   uint64 // all instructions fetched (incl. wrong path)
	WrongPath uint64 // wrong-path instructions dispatched

	BranchLookups uint64
	Mispredicts   uint64
	BTBMisses     uint64
	L1IAccesses   uint64
	L1IMisses     uint64
	L1DAccesses   uint64
	L1DMisses     uint64
	L2Accesses    uint64
	L2Misses      uint64

	Energy power.Summary

	// Derived.
	IPC        float64
	SecondsSim float64 // simulated wall-clock time
	IPS        float64 // instructions per simulated second
	Watts      float64
	EnergyJ    float64
	Efficiency float64 // ips^3 / Watt, the paper's metric

	Counters *RawCounters // non-nil when Options.Collect was set
}

// finalize computes the derived metrics from the raw totals.
func (r *Result) finalize(pm *power.Model) {
	if r.Cycles > 0 {
		r.IPC = float64(r.Committed) / float64(r.Cycles)
	}
	r.SecondsSim = float64(r.Cycles) * pm.PeriodPs * 1e-12
	if r.SecondsSim > 0 {
		r.IPS = float64(r.Committed) / r.SecondsSim
		r.Watts = r.Energy.TotalJ / r.SecondsSim
	}
	r.EnergyJ = r.Energy.TotalJ
	if r.Watts > 0 {
		r.Efficiency = r.IPS * r.IPS * r.IPS / r.Watts
	}
}

// entryState tracks an in-flight instruction's progress.
type entryState uint8

const (
	stDispatched entryState = iota
	stIssued
	stCompleted
)

// entry is one ROB slot. It keeps only what the stages after dispatch
// read of its instruction.
type entry struct {
	complete uint64 // cycle at which the result is written back
	addr     uint32 // effective address (loads and stores)
	op       trace.OpClass
	dst      int8 // destination register or -1
	nsrc     int8 // source operands read at issue
	state    entryState
	// pending counts source operands whose in-flight producer has not yet
	// completed. It is set at dispatch and decremented by the producer's
	// writeback broadcast; the entry joins the ready list exactly when it
	// reaches zero (the cycle its last operand becomes available).
	pending   int8
	dstBank   int8 // 0 int, 1 fp, -1 none (phys reg accounting)
	wrongPath bool
	// mispred marks the one in-flight branch known to be mispredicted
	// (fetch redirected down the wrong path until it resolves).
	mispred  bool
	resolved bool
	inIQ     bool
	inLSQ    bool
	// consHead and consTail delimit the chain of dispatched consumers
	// waiting on this entry's result (runState.consNodes), 0 if none.
	consHead, consTail int32
}

// Sim is a configured processor instance. Create with New, run with Run.
// A Sim is single-use per Run call sequence and not safe for concurrent
// use.
type Sim struct {
	cfg  arch.Config
	pm   *power.Model
	hier *cache.Hierarchy
	bp   *branch.Predictor

	// Functional unit pool sizes derived from width, by pool (opUnit).
	units [numUnits]int

	// Hoisted configuration and power-model constants, refreshed by
	// derive() on New and Reconfigure so the cycle loop never indexes the
	// config or switches on an op class for a latency.
	width    int
	robSize  int
	iqSize   int
	lsqSize  int
	maxBr    int
	rdPorts  int
	wrPorts  uint16
	freeInt  int
	freeFp   int
	feLat    uint64
	l2Lat    uint64
	memLat   uint64
	perCycPJ float64
	latTab   [trace.NumOpClasses]uint64
	// eventPJ is the one energy constant each single-constant structure
	// receives (zero for the others); see runState.events.
	eventPJ [power.NumStructures]float64
	// readPJ[n] is the register-file charge of an issue reading n
	// operands, float64(n)*RFRead.
	readPJ [4]float64
	// unitPJ is the functional-unit charge of an issue by op class (0
	// for loads and stores, whose energy goes to the caches and the LSQ).
	unitPJ [trace.NumOpClasses]float64

	// scratch is the per-Sim run-state arena, reused across Run calls so
	// the cycle loop allocates nothing. A Sim is documented single-use
	// per Run sequence, so sharing it is safe.
	scratch *runState
}

// New builds a simulator for cfg. It returns an error if cfg is outside
// the design space.
func New(cfg arch.Config) (*Sim, error) {
	if err := cfg.Check(); err != nil {
		return nil, err
	}
	hier, err := cache.NewHierarchy(cfg[arch.ICacheKB], cfg[arch.DCacheKB], cfg[arch.L2CacheKB])
	if err != nil {
		return nil, fmt.Errorf("cpu: %w", err)
	}
	bp, err := branch.New(cfg[arch.GshareSize], cfg[arch.BTBSize])
	if err != nil {
		return nil, fmt.Errorf("cpu: %w", err)
	}
	s := &Sim{
		cfg:  cfg,
		pm:   power.New(cfg),
		hier: hier,
		bp:   bp,
	}
	s.derive()
	return s, nil
}

// Release hands the Sim's run-state arena, cache line arrays and
// predictor tables to later Sims, so a caller that builds one Sim per
// simulation — the dataset build — does not allocate and collect them
// every time. Results the Sim returned stay valid; the Sim must not be
// used afterwards.
func (s *Sim) Release() {
	s.hier.Release()
	s.bp.Release()
	if st := s.scratch; st != nil {
		st.cnt = nil
		s.scratch = nil
		statePool.Put(st)
	}
}

// derive refreshes every config- and model-derived constant the cycle
// loop reads. Called on New and Reconfigure.
func (s *Sim) derive() {
	w := s.cfg[arch.Width]
	s.units = [numUnits]int{
		unitIntALU: w,
		unitIntMul: max(1, w/4),
		unitFpALU:  max(1, w/2),
		unitFpMul:  max(1, w/4),
		unitMem:    max(1, w/2),
	}
	s.width = w
	s.robSize = s.cfg[arch.ROBSize]
	s.iqSize = s.cfg[arch.IQSize]
	s.lsqSize = s.cfg[arch.LSQSize]
	s.maxBr = s.cfg[arch.MaxBranches]
	s.rdPorts = s.cfg[arch.RFReadPorts]
	s.wrPorts = uint16(s.cfg[arch.RFWritePorts])
	s.freeInt = s.cfg[arch.RFSize] - trace.NumIntRegs
	s.freeFp = s.cfg[arch.RFSize] - trace.NumFpRegs
	s.feLat = uint64(s.pm.FrontEndStages)
	s.l2Lat = uint64(s.pm.L2Latency)
	s.memLat = uint64(s.pm.MemLatency)
	s.perCycPJ = s.pm.ClockPerCyc + s.pm.IdlePerCyc
	s.unitPJ = [trace.NumOpClasses]float64{
		trace.IntALU: s.pm.IntOp,
		trace.Branch: s.pm.IntOp,
		trace.IntMul: s.pm.MulOp,
		trace.FpMul:  s.pm.MulOp,
		trace.FpALU:  s.pm.FpOp,
	}
	for n := range s.readPJ {
		s.readPJ[n] = float64(n) * s.pm.RFRead
	}
	s.eventPJ = [power.NumStructures]float64{
		power.StructROB:    s.pm.ROBAccess,
		power.StructLSQ:    s.pm.LSQAccess,
		power.StructRename: s.pm.RenameOp,
		power.StructDCache: s.pm.DCacheAccess,
		power.StructICache: s.pm.ICacheAccess,
		power.StructBpred:  s.pm.BpredLookup + s.pm.BTBLookup,
	}
	for op := trace.OpClass(0); op < trace.NumOpClasses; op++ {
		s.latTab[op] = s.execLatency(op)
	}
}

// Config returns the simulated configuration.
func (s *Sim) Config() arch.Config { return s.cfg }

// Power returns the derived power/timing model.
func (s *Sim) Power() *power.Model { return s.pm }

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Execution latencies by op class (cycles), before memory effects.
func (s *Sim) execLatency(op trace.OpClass) uint64 {
	switch op {
	case trace.IntALU:
		return 1
	case trace.IntMul:
		return 7
	case trace.FpALU:
		return 2
	case trace.FpMul:
		return 6
	case trace.Store:
		return 1
	case trace.Branch:
		return 1
	default: // Load base latency is the L1 hit time; misses add more.
		return uint64(s.pm.L1DLatency)
	}
}

// Reconfigure switches the simulator to a new configuration in place,
// preserving the architectural state a real adaptive processor would
// retain: caches keep their contents unless their size changed (bitline
// segmentation flushes a resized cache), and the branch predictor keeps
// its training unless its tables were resized. Timing, energy and
// functional-unit provisioning always follow the new configuration.
func (s *Sim) Reconfigure(cfg arch.Config) error {
	if err := cfg.Check(); err != nil {
		return err
	}
	old := s.cfg
	if cfg[arch.ICacheKB] != old[arch.ICacheKB] {
		c, err := cache.NewCache(cfg[arch.ICacheKB], 2, cache.L1LineBytes)
		if err != nil {
			return fmt.Errorf("cpu: reconfigure L1I: %w", err)
		}
		c.FillFrom(s.hier.L1I) // surviving partitions keep their lines
		s.hier.L1I = c
	}
	if cfg[arch.DCacheKB] != old[arch.DCacheKB] {
		c, err := cache.NewCache(cfg[arch.DCacheKB], 2, cache.L1LineBytes)
		if err != nil {
			return fmt.Errorf("cpu: reconfigure L1D: %w", err)
		}
		c.FillFrom(s.hier.L1D)
		s.hier.L1D = c
	}
	if cfg[arch.L2CacheKB] != old[arch.L2CacheKB] {
		c, err := cache.NewCache(cfg[arch.L2CacheKB], 8, cache.L2LineBytes)
		if err != nil {
			return fmt.Errorf("cpu: reconfigure L2: %w", err)
		}
		c.FillFrom(s.hier.L2)
		s.hier.L2 = c
	}
	if cfg[arch.GshareSize] != old[arch.GshareSize] || cfg[arch.BTBSize] != old[arch.BTBSize] {
		bp, err := branch.New(cfg[arch.GshareSize], cfg[arch.BTBSize])
		if err != nil {
			return fmt.Errorf("cpu: reconfigure predictor: %w", err)
		}
		s.bp = bp
	}
	s.cfg = cfg
	s.pm = power.New(cfg)
	s.derive()
	return nil
}
