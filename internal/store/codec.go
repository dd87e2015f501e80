// Record codec: the content-addressed keys and the canonical binary
// encoding of a cpu.Result — measurement-mode or profiling-mode. Both are
// fixed-layout little-endian so a record written on one run decodes
// bit-identically on the next — float64 fields round-trip through their
// IEEE bits, never through text.
package store

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/arch"
	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/power"
	"repro/internal/stats"
)

// Key is the SHA-256 fingerprint of one simulation's canonical inputs.
type Key [sha256.Size]byte

const keySize = sha256.Size

// fingerprintMagic and profileMagic domain-separate the two key kinds
// from each other and from any other SHA-256 use.
const (
	fingerprintMagic = "repro.simres\x00"
	profileMagic     = "repro.simprof\x00"
)

// Fingerprint derives the store key for one measurement-mode simulation:
// the phase identity, the full configuration, and the two Scale levers
// that shape a single run (interval and warmup instruction counts). The
// remaining Scale fields (seed, program list, sample budgets) decide
// *which* simulations happen, not what any one of them returns, so they
// stay out of the key — that is what lets report, adaptd and adaptsim
// runs at different scales share records. SimVersion is baked in, so
// bumping it retires every old record without touching the file.
func Fingerprint(program string, phase int, cfg arch.Config, intervalInsts, warmupInsts int) Key {
	return fingerprint(SimVersion, program, phase, cfg, intervalInsts, warmupInsts)
}

// ProfileFingerprint derives the store key for one profiling-mode
// simulation (cpu.Options.Collect): Fingerprint's inputs under their own
// domain tag, plus the cache profilers' set-sampling level, which shapes
// the collected histograms but not the measured counts.
func ProfileFingerprint(program string, phase int, cfg arch.Config, intervalInsts, warmupInsts, sampledSets int) Key {
	return profileFingerprint(SimVersion, program, phase, cfg, intervalInsts, warmupInsts, sampledSets)
}

func fingerprint(version uint64, program string, phase int, cfg arch.Config, intervalInsts, warmupInsts int) Key {
	return sha256.Sum256(appendInputs(fingerprintMagic, version, program, phase, cfg, intervalInsts, warmupInsts))
}

func profileFingerprint(version uint64, program string, phase int, cfg arch.Config, intervalInsts, warmupInsts, sampledSets int) Key {
	buf := appendInputs(profileMagic, version, program, phase, cfg, intervalInsts, warmupInsts)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(sampledSets)))
	return sha256.Sum256(buf)
}

// appendInputs is the canonical encoding of one simulation's inputs under
// the domain tag magic.
func appendInputs(magic string, version uint64, program string, phase int, cfg arch.Config, intervalInsts, warmupInsts int) []byte {
	buf := make([]byte, 0, 256)
	buf = append(buf, magic...)
	buf = binary.LittleEndian.AppendUint64(buf, version)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(program)))
	buf = append(buf, program...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(phase)))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(arch.NumParams))
	for p := arch.Param(0); p < arch.NumParams; p++ {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(cfg[p])))
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(intervalInsts)))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(warmupInsts)))
	return buf
}

// Field counts of the fixed record layout. Decoding checks these against
// the running binary: a result struct that grew or shrank (or a changed
// arch.NumParams / power.NumStructures / histogram geometry) makes old
// records undecodable, which Get treats as a miss — never as silently
// wrong data.
const (
	countFields   = 13 // Cycles .. L2Misses
	derivedFields = 6  // IPC, SecondsSim, IPS, Watts, EnergyJ, Efficiency

	histFields    = 22 // RawCounters histograms, the profilers' included
	profilerCount = 3  // ICache, DCache, L2
	scalarFields  = 6  // speculation fractions, MispredictRate, CPI
)

// encodedSize is the exact length of a measurement-mode value for the
// current build.
func encodedSize() int {
	return 2 + // uint16 param count
		4*int(arch.NumParams) + // config values
		8*countFields +
		8 + // energy cycles
		8*3 + // dynamic, leakage, total joules
		2 + // uint16 structure count
		8*int(power.NumStructures) +
		8 + // average power
		8*derivedFields
}

// countersSize is the exact length of the counters section a
// profiling-mode value carries after the measurement layout.
func countersSize() int {
	bins := cpu.ALUBins + cpu.MemPortBins + 5*cpu.OccBins + cpu.RdPortBins +
		cpu.WrPortBins + 4*profilerCount*cache.HistBins + cpu.BTBReuseBins
	return 2*histFields + // uint16 bin count per histogram
		8*bins +
		8*profilerCount + // observation counts
		8*scalarFields
}

// encodeResult serialises a result: the measurement layout, followed for
// a profiling-mode result (Counters non-nil) by its RawCounters — the 22
// histograms, 3 profiler observation counts and 6 scalars in the order
// the simulator's golden digest encodes them. A histogram is its uint16
// bin count and its bins; its Total is their sum, so it is not stored.
// The value length alone tells the two kinds apart.
func encodeResult(r *cpu.Result) []byte {
	size := encodedSize()
	if r.Counters != nil {
		size += countersSize()
	}
	buf := make([]byte, 0, size)
	u64 := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	f64 := func(v float64) { buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v)) }

	buf = binary.LittleEndian.AppendUint16(buf, uint16(arch.NumParams))
	for p := arch.Param(0); p < arch.NumParams; p++ {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(int32(r.Config[p])))
	}
	u64(r.Cycles)
	u64(r.Committed)
	u64(r.Fetched)
	u64(r.WrongPath)
	u64(r.BranchLookups)
	u64(r.Mispredicts)
	u64(r.BTBMisses)
	u64(r.L1IAccesses)
	u64(r.L1IMisses)
	u64(r.L1DAccesses)
	u64(r.L1DMisses)
	u64(r.L2Accesses)
	u64(r.L2Misses)

	u64(r.Energy.Cycles)
	f64(r.Energy.DynamicJ)
	f64(r.Energy.LeakageJ)
	f64(r.Energy.TotalJ)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(power.NumStructures))
	for st := power.Structure(0); st < power.NumStructures; st++ {
		f64(r.Energy.PerStructureJ[st])
	}
	f64(r.Energy.AvgPowerW)

	f64(r.IPC)
	f64(r.SecondsSim)
	f64(r.IPS)
	f64(r.Watts)
	f64(r.EnergyJ)
	f64(r.Efficiency)

	c := r.Counters
	if c == nil {
		return buf
	}
	hist := func(h *stats.Histogram) {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(h.Counts)))
		for _, n := range h.Counts {
			u64(n)
		}
	}
	hist(c.ALUUsage)
	hist(c.MemPortUsage)
	hist(c.ROBOcc)
	hist(c.IQOcc)
	hist(c.LSQOcc)
	f64(c.IQSpecFrac)
	f64(c.IQMisspecFrac)
	f64(c.LSQSpecFrac)
	f64(c.LSQMisspecFrac)
	hist(c.IntRegUsage)
	hist(c.FpRegUsage)
	hist(c.RdPortUsage)
	hist(c.WrPortUsage)
	for _, p := range []*cache.Profiler{c.ICache, c.DCache, c.L2} {
		u64(p.Observations())
		hist(p.StackDist)
		hist(p.BlockReuse)
		hist(p.SetReuse)
		hist(p.ReducedSets)
	}
	hist(c.BTBReuse)
	f64(c.MispredictRate)
	f64(c.CPI)
	return buf
}

// decodeResult is encodeResult's strict inverse: the value must have the
// exact current-layout length of one of the two kinds, and every
// dimension tag must match this build's geometry.
func decodeResult(value []byte) (*cpu.Result, error) {
	base := encodedSize()
	if len(value) != base && len(value) != base+countersSize() {
		return nil, fmt.Errorf("store: record value is %d bytes, want %d or %d", len(value), base, base+countersSize())
	}
	off := 0
	u16 := func() uint16 { v := binary.LittleEndian.Uint16(value[off:]); off += 2; return v }
	u32 := func() uint32 { v := binary.LittleEndian.Uint32(value[off:]); off += 4; return v }
	u64 := func() uint64 { v := binary.LittleEndian.Uint64(value[off:]); off += 8; return v }
	f64 := func() float64 { return math.Float64frombits(u64()) }

	if n := u16(); n != uint16(arch.NumParams) {
		return nil, fmt.Errorf("store: record has %d parameters, want %d", n, arch.NumParams)
	}
	r := &cpu.Result{}
	for p := arch.Param(0); p < arch.NumParams; p++ {
		r.Config[p] = int(int32(u32()))
	}
	r.Cycles = u64()
	r.Committed = u64()
	r.Fetched = u64()
	r.WrongPath = u64()
	r.BranchLookups = u64()
	r.Mispredicts = u64()
	r.BTBMisses = u64()
	r.L1IAccesses = u64()
	r.L1IMisses = u64()
	r.L1DAccesses = u64()
	r.L1DMisses = u64()
	r.L2Accesses = u64()
	r.L2Misses = u64()

	r.Energy.Cycles = u64()
	r.Energy.DynamicJ = f64()
	r.Energy.LeakageJ = f64()
	r.Energy.TotalJ = f64()
	if n := u16(); n != uint16(power.NumStructures) {
		return nil, fmt.Errorf("store: record has %d power structures, want %d", n, power.NumStructures)
	}
	for st := power.Structure(0); st < power.NumStructures; st++ {
		r.Energy.PerStructureJ[st] = f64()
	}
	r.Energy.AvgPowerW = f64()

	r.IPC = f64()
	r.SecondsSim = f64()
	r.IPS = f64()
	r.Watts = f64()
	r.EnergyJ = f64()
	r.Efficiency = f64()
	if off == len(value) {
		return r, nil
	}

	// The counters section. After a wrong bin count no histogram reads
	// its bins, so the remaining fixed-size reads consume less than the
	// section holds and never run past the value.
	var bad error
	hist := func(bins int) *stats.Histogram {
		if bad != nil {
			return nil
		}
		if n := u16(); int(n) != bins {
			bad = fmt.Errorf("store: record histogram has %d bins, want %d", n, bins)
			return nil
		}
		h := stats.NewHistogram(bins)
		for i := range h.Counts {
			h.Counts[i] = u64()
			h.Total += h.Counts[i]
		}
		return h
	}
	c := &cpu.RawCounters{}
	c.ALUUsage = hist(cpu.ALUBins)
	c.MemPortUsage = hist(cpu.MemPortBins)
	c.ROBOcc = hist(cpu.OccBins)
	c.IQOcc = hist(cpu.OccBins)
	c.LSQOcc = hist(cpu.OccBins)
	c.IQSpecFrac = f64()
	c.IQMisspecFrac = f64()
	c.LSQSpecFrac = f64()
	c.LSQMisspecFrac = f64()
	c.IntRegUsage = hist(cpu.OccBins)
	c.FpRegUsage = hist(cpu.OccBins)
	c.RdPortUsage = hist(cpu.RdPortBins)
	c.WrPortUsage = hist(cpu.WrPortBins)
	for _, p := range []**cache.Profiler{&c.ICache, &c.DCache, &c.L2} {
		n := u64()
		*p = cache.FinishedProfile(n, hist(cache.HistBins), hist(cache.HistBins),
			hist(cache.HistBins), hist(cache.HistBins))
	}
	c.BTBReuse = hist(cpu.BTBReuseBins)
	c.MispredictRate = f64()
	c.CPI = f64()
	if bad != nil {
		return nil, bad
	}
	r.Counters = c
	return r, nil
}
