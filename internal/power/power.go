// Package power models the timing, energy and area consequences of a
// microarchitectural configuration, standing in for the Wattch and Cacti
// models the paper uses. The model is analytic: access energies grow
// sublinearly with structure size and superlinearly with port count,
// leakage grows linearly with stored bits, and access latencies grow
// logarithmically with array size — the characteristic shapes Cacti
// produces — with constants calibrated so the paper's baseline
// configuration lands at a plausible clock (~2.8 GHz) and power budget
// (tens of watts).
//
// All dynamic energies are in picojoules per event; leakage is in watts.
package power

import (
	"fmt"
	"math"

	"repro/internal/arch"
)

// Structure identifies a power-accounted processor structure. The CPU
// simulator attributes every picojoule to one of these, enabling the
// per-structure breakdowns of Figures 5 and 9.
type Structure int

// Power-accounted structures.
const (
	StructROB Structure = iota
	StructIQ
	StructLSQ
	StructRF
	StructBpred
	StructICache
	StructDCache
	StructL2
	StructFU
	StructRename
	StructClock
	NumStructures
)

var structureNames = [NumStructures]string{
	"ROB", "IQ", "LSQ", "RF", "Bpred", "ICache", "DCache", "L2", "FU", "Rename", "Clock",
}

// String returns the structure's display name.
func (s Structure) String() string {
	if s < 0 || s >= NumStructures {
		return fmt.Sprintf("Structure(%d)", int(s))
	}
	return structureNames[s]
}

// Process constants for the modelled technology node (90nm-class, matching
// the Wattch/Cacti vintage the paper used).
const (
	fo4Picoseconds = 30.0  // delay of one fanout-of-4 inverter
	pipelineFO4    = 240.0 // total logic depth of the scalar pipeline in FO4
	memLatencyNs   = 60.0  // main memory access latency
	minStages      = 5     // floor on pipeline stages at the shallowest design
)

// Model holds every derived timing and energy quantity for one
// configuration. Construct it with New; all fields are read-only
// afterwards.
type Model struct {
	Cfg arch.Config

	// Timing.
	FrequencyHz      float64 // clock frequency implied by FO4 per stage
	PeriodPs         float64 // clock period in picoseconds
	Stages           int     // pipeline stages implied by depth
	FrontEndStages   int     // fetch-to-dispatch stages (refill after flush)
	MispredictCycles int     // branch misprediction resolution penalty
	L1ILatency       int     // I-cache hit latency, cycles
	L1DLatency       int     // D-cache hit latency, cycles
	L2Latency        int     // L2 hit latency, cycles
	MemLatency       int     // main memory latency, cycles

	// Per-event dynamic energies, picojoules.
	ROBAccess    float64 // one ROB read or write
	IQInsert     float64 // dispatch into the issue queue
	IQWakeup     float64 // one tag broadcast across the issue queue
	IQIssue      float64 // selection + readout of one entry
	LSQAccess    float64 // one LSQ insert/search/remove
	RFRead       float64 // one register file read
	RFWrite      float64 // one register file write
	BpredLookup  float64 // one gshare lookup/update
	BTBLookup    float64 // one BTB lookup/update
	ICacheAccess float64 // one I-cache access
	DCacheAccess float64 // one D-cache access
	L2Access     float64 // one L2 access
	MemAccess    float64 // one DRAM access (controller + bus)
	RenameOp     float64 // one rename-table read/write pair
	IntOp        float64 // one integer ALU operation
	FpOp         float64 // one FP operation
	MulOp        float64 // one multiply/divide
	ClockPerCyc  float64 // clock tree + global wires, per cycle
	IdlePerCyc   float64 // conditional-clocking floor for idle structures

	// Leakage, watts, per structure and total.
	Leakage      [NumStructures]float64
	TotalLeakage float64
}

// New derives the full timing/energy model for cfg.
func New(cfg arch.Config) *Model {
	m := &Model{Cfg: cfg}

	fo4 := float64(cfg[arch.DepthFO4])
	m.PeriodPs = fo4 * fo4Picoseconds
	m.FrequencyHz = 1e12 / m.PeriodPs
	m.Stages = int(math.Round(pipelineFO4 / fo4))
	if m.Stages < minStages {
		m.Stages = minStages
	}
	m.FrontEndStages = maxInt(2, int(math.Round(float64(m.Stages)*0.45)))
	// Resolution = refill the front end + drain to the branch unit.
	m.MispredictCycles = m.FrontEndStages + 3

	// Array access times (ps), Cacti-shaped: constant + log term.
	icPs := 260 + 95*math.Log2(float64(cfg[arch.ICacheKB]))
	dcPs := 260 + 95*math.Log2(float64(cfg[arch.DCacheKB]))
	l2Ps := 2200 + 650*math.Log2(float64(cfg[arch.L2CacheKB])/256)
	m.L1ILatency = cyc(icPs, m.PeriodPs)
	m.L1DLatency = cyc(dcPs, m.PeriodPs)
	m.L2Latency = cyc(l2Ps, m.PeriodPs)
	m.MemLatency = cyc(memLatencyNs*1000, m.PeriodPs)

	w := float64(cfg[arch.Width])
	rob := float64(cfg[arch.ROBSize])
	iq := float64(cfg[arch.IQSize])
	lsq := float64(cfg[arch.LSQSize])
	rf := float64(cfg[arch.RFSize])
	rd := float64(cfg[arch.RFReadPorts])
	wr := float64(cfg[arch.RFWritePorts])
	gsh := float64(cfg[arch.GshareSize])
	btb := float64(cfg[arch.BTBSize])
	icKB := float64(cfg[arch.ICacheKB])
	dcKB := float64(cfg[arch.DCacheKB])
	l2KB := float64(cfg[arch.L2CacheKB])

	// Dynamic energies. RAM-like structures: e0 * size^a * portFactor.
	// Port factor grows superlinearly: wordlines lengthen and bitline
	// capacitance multiplies with each added port.
	dispatchPorts := w
	m.ROBAccess = 0.9 * math.Pow(rob, 0.55) * portFactor(2*dispatchPorts)
	m.IQInsert = 1.4 * math.Pow(iq, 0.6) * portFactor(dispatchPorts)
	m.IQWakeup = 0.12 * iq // CAM broadcast touches every entry
	m.IQIssue = 1.1 * math.Pow(iq, 0.6) * portFactor(w)
	m.LSQAccess = 1.6*math.Pow(lsq, 0.6) + 0.10*lsq // RAM + address CAM search
	m.RFRead = 0.55 * math.Pow(rf, 0.5) * portFactor(rd)
	m.RFWrite = 0.75 * math.Pow(rf, 0.5) * portFactor(wr)
	m.BpredLookup = 1.3 * math.Pow(gsh/1024, 0.55)
	m.BTBLookup = 2.0 * math.Pow(btb/1024, 0.55)
	m.ICacheAccess = 24 * math.Pow(icKB, 0.58)
	m.DCacheAccess = 24*math.Pow(dcKB, 0.58) + 6 // +write buffers
	m.L2Access = 95 * math.Pow(l2KB/256, 0.58)
	m.MemAccess = 4200 // controller, bus, DRAM activate amortised
	m.RenameOp = 1.8 * math.Pow(rf, 0.35) * portFactor(dispatchPorts)
	m.IntOp = 28
	m.FpOp = 76
	m.MulOp = 115

	// Clock tree and global interconnect scale with machine extent:
	// wider and deeper machines drive more latches and wire.
	m.ClockPerCyc = 130 + 24*w + 16*float64(m.Stages) + 5*w*float64(m.Stages)/4
	// Conditional clocking (Wattch cc3): gated structures still burn ~12%
	// of their nominal energy when idle; we charge a flat floor per cycle
	// proportional to total capacity.
	cap := rob + iq + lsq + 2*rf + (icKB+dcKB)*4 + l2KB/4
	m.IdlePerCyc = 0.012 * cap

	// Leakage: proportional to stored bits (and ports, for the RF).
	const (
		leakPerEntryW = 9e-6  // ROB/IQ/LSQ entry
		leakPerRegW   = 11e-6 // per register per port-pair
		leakPerKBW    = 2.4e-3
		leakPerBpKW   = 0.9e-3
	)
	m.Leakage[StructROB] = rob * leakPerEntryW * 4
	m.Leakage[StructIQ] = iq * leakPerEntryW * 6
	m.Leakage[StructLSQ] = lsq * leakPerEntryW * 5
	m.Leakage[StructRF] = 2 * rf * leakPerRegW * (1 + 0.2*(rd+wr))
	m.Leakage[StructBpred] = (gsh/1024 + btb/1024) * leakPerBpKW
	m.Leakage[StructICache] = icKB * leakPerKBW
	m.Leakage[StructDCache] = dcKB * leakPerKBW
	m.Leakage[StructL2] = l2KB * leakPerKBW * 0.55 // slower, lower-leak cells
	m.Leakage[StructFU] = 0.11 * w
	m.Leakage[StructRename] = 0.05 * w
	m.Leakage[StructClock] = 0.3 + 0.05*w
	for _, l := range m.Leakage {
		m.TotalLeakage += l
	}
	return m
}

// portFactor models the superlinear growth of array energy with ports.
func portFactor(ports float64) float64 {
	if ports < 1 {
		ports = 1
	}
	return math.Pow(ports, 0.85)
}

func cyc(ps, periodPs float64) int {
	n := int(math.Ceil(ps / periodPs))
	if n < 1 {
		n = 1
	}
	return n
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Account accumulates per-structure dynamic energy during a simulation.
// The zero value is ready to use.
type Account struct {
	DynamicPJ [NumStructures]float64
}

// Add charges pj picojoules of dynamic energy to structure s.
func (a *Account) Add(s Structure, pj float64) { a.DynamicPJ[s] += pj }

// Summary converts an account plus elapsed cycles into joules, adding
// leakage for the elapsed wall-clock time.
type Summary struct {
	Cycles        uint64
	DynamicJ      float64
	LeakageJ      float64
	TotalJ        float64
	PerStructureJ [NumStructures]float64 // dynamic + leakage per structure
	AvgPowerW     float64
}

// Summarize produces the energy summary for a run of the given cycle count
// under model m.
func (m *Model) Summarize(acc *Account, cycles uint64) Summary {
	s := Summary{Cycles: cycles}
	seconds := float64(cycles) * m.PeriodPs * 1e-12
	for st := Structure(0); st < NumStructures; st++ {
		dyn := acc.DynamicPJ[st] * 1e-12
		leak := m.Leakage[st] * seconds
		s.PerStructureJ[st] = dyn + leak
		s.DynamicJ += dyn
		s.LeakageJ += leak
	}
	s.TotalJ = s.DynamicJ + s.LeakageJ
	if seconds > 0 {
		s.AvgPowerW = s.TotalJ / seconds
	}
	return s
}
