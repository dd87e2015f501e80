package cpu

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/trace"
)

// genSource adapts a slice to the generic Source interface without being a
// *SliceSource, forcing the interface-call fetch path.
type genSource struct {
	insts []trace.Inst
	pos   int
}

func (g *genSource) Next() trace.Inst {
	in := g.insts[g.pos]
	g.pos++
	if g.pos == len(g.insts) {
		g.pos = 0
	}
	return in
}

// mispredictStream builds a stream engineered to flush while wakeups are
// pending: chains of long-latency multiplies feed a coin-flip branch the
// gshare cannot learn, so mispredicted branches resolve while older
// in-flight producers still hold scheduled completion events and younger
// consumers sit in their wait chains.
func mispredictStream(n int) []trace.Inst {
	rng := rand.New(rand.NewPCG(42, 99))
	insts := make([]trace.Inst, 0, n)
	pc := uint32(0x4000)
	for len(insts) < n {
		insts = append(insts,
			trace.Inst{Op: trace.IntMul, Dst: 1, Src1: 2, Src2: 3, PC: pc},
			trace.Inst{Op: trace.IntMul, Dst: 4, Src1: 1, Src2: 3, PC: pc + 4},
			trace.Inst{Op: trace.IntALU, Dst: 5, Src1: 4, Src2: 1, PC: pc + 8},
			trace.Inst{Op: trace.Branch, Src1: 5, PC: pc + 12, Taken: rng.IntN(2) == 0, Target: pc},
		)
		pc += 16
	}
	return insts[:n]
}

// TestFlushWithPendingWakeups drives the scheduler through its hardest
// transition — a mispredict flush arriving mid-walk while completion
// tokens are still queued for surviving producers — and asserts the run
// drains completely and deterministically.
func TestFlushWithPendingWakeups(t *testing.T) {
	insts := mispredictStream(600)
	cfg := arch.Baseline().With(arch.ROBSize, 32).With(arch.IQSize, 16).With(arch.MaxBranches, 8)

	run := func() *Result {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(NewSliceSource(insts), len(insts), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if s.scratch.robCount != 0 || s.scratch.iqCount != 0 || s.scratch.lsqCount != 0 {
			t.Fatalf("pipeline did not drain: rob=%d iq=%d lsq=%d",
				s.scratch.robCount, s.scratch.iqCount, s.scratch.lsqCount)
		}
		return res
	}

	res := run()
	if res.Committed != 600 {
		t.Fatalf("committed %d, want 600", res.Committed)
	}
	if res.Mispredicts == 0 {
		t.Fatal("stream produced no mispredicts; the flush path was never exercised")
	}
	if res.WrongPath == 0 {
		t.Fatal("no wrong-path instructions dispatched; flushes squashed nothing")
	}
	if again := run(); !reflect.DeepEqual(res, again) {
		t.Error("two identical runs disagree after mispredict flushes")
	}
}

// TestReconfigureShrinkROB shrinks the ROB (and the scheduler arena with
// it) below the ready-list high-water mark of the previous run, then
// checks the shrunk simulator is indistinguishable from a freshly built
// one: any stale chain, ready-list entry or ring slot surviving the
// resize would perturb the result.
func TestReconfigureShrinkROB(t *testing.T) {
	// Prefix: independent FP multiplies on a 2-wide machine (one FP-mul
	// unit). Dispatch outruns issue two to one, so ready-but-blocked
	// entries pile up in the list far past the small ROB size. The applu
	// tail then exercises the equivalence over a realistic mix.
	var insts []trace.Inst
	for i := 0; i < 1500; i++ {
		insts = append(insts, trace.Inst{
			Op: trace.FpMul, Dst: int8(32 + i%24), Src1: 2, Src2: 3,
			PC: uint32(0x6000 + 4*(i%64)),
		})
	}
	insts = append(insts, mkTrace(t, "applu", 0, 2500)...)
	big := arch.Baseline().With(arch.Width, 2).
		With(arch.ROBSize, 160).With(arch.IQSize, 80).With(arch.LSQSize, 80)
	// Different predictor tables so Reconfigure rebuilds them; caches are
	// flushed on the measured run. Fresh and reconfigured simulators then
	// start from the same architectural state.
	small := big.With(arch.ROBSize, 32).With(arch.IQSize, 8).With(arch.LSQSize, 8).
		With(arch.GshareSize, 1024).With(arch.BTBSize, 2048)

	s1, err := New(big)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Run(NewSliceSource(insts), len(insts), Options{}); err != nil {
		t.Fatal(err)
	}
	if hw := cap(s1.scratch.iqList); hw <= small[arch.ROBSize] {
		t.Fatalf("ready-list high-water mark %d never exceeded the small ROB (%d); pick a busier workload",
			hw, small[arch.ROBSize])
	}
	if err := s1.Reconfigure(small); err != nil {
		t.Fatal(err)
	}
	got, err := s1.Run(NewSliceSource(insts), len(insts), Options{FlushCaches: true})
	if err != nil {
		t.Fatal(err)
	}

	s2, err := New(small)
	if err != nil {
		t.Fatal(err)
	}
	want, err := s2.Run(NewSliceSource(insts), len(insts), Options{FlushCaches: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("shrunk-in-place simulator diverges from a fresh one:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestCycleSkipLongLatencyLoad sends every load to main memory with a
// dependent consumer behind it, so the pipeline repeatedly goes completely
// idle until the scheduled completion: the zero-progress fast-forward must
// cross the full memory latency and deliver the wakeup, or the consumer
// deadlocks into the cycle-limit error. The interface-source run guards
// the slice fast path against skew.
func TestCycleSkipLongLatencyLoad(t *testing.T) {
	const n = 64
	insts := make([]trace.Inst, 0, n)
	for i := 0; len(insts) < n; i++ {
		// Distinct 4 KiB-spaced lines (cold misses all the way down), each
		// load's address depending on the previous load's result so the
		// misses serialise instead of overlapping in the window.
		insts = append(insts,
			trace.Inst{Op: trace.Load, Dst: 1, Src1: 1, PC: 0x8000, Addr: uint32(i) * 4096},
			trace.Inst{Op: trace.IntALU, Dst: 3, Src1: 1, Src2: 1, PC: 0x8004},
		)
	}
	insts = insts[:n]
	cfg := arch.MinConfig()

	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(NewSliceSource(insts), len(insts), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed != n {
		t.Fatalf("committed %d, want %d", res.Committed, n)
	}
	memLat := uint64(s.Power().MemLatency)
	if res.Cycles < uint64(n/2)*memLat/2 {
		t.Errorf("cycles %d implausibly low for %d memory-latency (%d-cycle) stalls",
			res.Cycles, n/2, memLat)
	}

	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := s2.Run(&genSource{insts: insts}, len(insts), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, res2) {
		t.Error("slice fast path and interface source disagree across cycle skips")
	}
}

// TestResourceStallsAreFastForwarded holds the clock to its skip rule on
// the full-window memory stall: a memory-bound workload on a small window
// spends most of its cycles with the oldest fetched instruction delivered
// but blocked on ROB, IQ, LSQ or register space behind outstanding misses.
// No stage can act in those cycles until a completion arrives, so the main
// loop must fast-forward through them rather than step each one.
func TestResourceStallsAreFastForwarded(t *testing.T) {
	insts := mkTrace(t, "mcf", 1, 5000)
	cfg := arch.Baseline().
		With(arch.ROBSize, 40).With(arch.IQSize, 16).
		With(arch.LSQSize, 8).With(arch.RFSize, 48)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(NewSliceSource(insts), len(insts), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Stepping every blocked cycle gives 95 %; skipping them, under 7 %.
	if stepped := s.scratch.stepped; stepped > res.Cycles/4 {
		t.Errorf("main loop stepped %d of %d cycles; resource-blocked stalls must be fast-forwarded",
			stepped, res.Cycles)
	}
}
