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

// wakeSeqs lists the seqs of the ring slot for cycle c, in list order.
func wakeSeqs(st *runState, c uint64) []uint64 {
	if !st.wakeAt(c) {
		return nil
	}
	var out []uint64
	for n := st.wakeHead[c%wbWindow]; n != 0; n = st.wakeNodes[n].next {
		out = append(out, st.wakeNodes[n].seq)
	}
	return out
}

// TestFarWakeupsDrainInSeqOrder drives the far-horizon path, which real
// runs do not reach: a completion more than wbWindow cycles out needs
// thousands of queued write-port conflicts. While far tokens are pending,
// fastForward stops at the earlier of the next ring token and the far
// tokens, and samples the skipped cycles one at a time; once in reach,
// drainFar merges the far tokens into their ring slot in seq order.
func TestFarWakeupsDrainInSeqOrder(t *testing.T) {
	s, err := New(arch.Profiling())
	if err != nil {
		t.Fatal(err)
	}
	st := s.getState()
	c, err := newCollector(s.cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	st.cnt = c
	const start, near = 1000, 1020
	const far = start + wbWindow + 500
	st.cycle = start
	st.pushWake(7, 7, far)
	st.pushWake(3, 3, far)
	st.pushWake(9, 9, near)
	if len(st.wakeFar) != 2 || !reflect.DeepEqual(wakeSeqs(st, near), []uint64{9}) {
		t.Fatalf("far tokens %v, ring slot %v", st.wakeFar, wakeSeqs(st, near))
	}
	const limit = 1 << 40
	s.fastForward(st, limit)
	if st.cycle != near-1 {
		t.Fatalf("fast-forward stopped at %d, want %d (one short of the ring token)", st.cycle, near-1)
	}
	// The main loop's step at near consumes the ring token.
	st.cycle = near
	st.freeWakeSlot(near % wbWindow)
	s.fastForward(st, limit)
	if st.cycle != far-1 {
		t.Fatalf("fast-forward stopped at %d, want %d (one short of the far tokens)", st.cycle, far-1)
	}
	c.flushRun()
	if want := uint64(near-1-start) + uint64(far-1-near); c.raw.ROBOcc.Total != want {
		t.Errorf("sampled %d skipped cycles, want %d", c.raw.ROBOcc.Total, want)
	}
	// A token pushed within reach sits between the far ones by seq.
	st.pushWake(5, 5, far)
	st.cycle = far
	st.drainFar()
	if len(st.wakeFar) != 0 {
		t.Fatalf("%d far tokens left after draining at their cycle", len(st.wakeFar))
	}
	if got := wakeSeqs(st, far); !reflect.DeepEqual(got, []uint64{3, 5, 7}) {
		t.Errorf("ring slot after drain holds seqs %v, want [3 5 7]", got)
	}
}

// TestFastForwardBatchAcrossRingWrap checks the batched skip: with no far
// tokens, fastForward finds the next ring token through the occupancy
// bitmap, also when it lies past the ring's wrap point, samples the
// skipped cycles as one run and expires exactly their write-port slots.
func TestFastForwardBatchAcrossRingWrap(t *testing.T) {
	s, err := New(arch.Profiling())
	if err != nil {
		t.Fatal(err)
	}
	st := s.getState()
	c, err := newCollector(s.cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	st.cnt = c
	const start = 3*wbWindow - 30
	const next = start + 100 // 70 slots past the wrap
	st.cycle = start
	st.pushWake(1, 1, next)
	for i := range st.wbUsed {
		st.wbUsed[i] = 1
	}
	s.fastForward(st, 1<<40)
	if st.cycle != next-1 {
		t.Fatalf("fast-forward stopped at %d, want %d", st.cycle, next-1)
	}
	for cyc := uint64(start - 5); cyc < next+5; cyc++ {
		want := uint16(1)
		if cyc > start && cyc < next {
			want = 0
		}
		if got := st.wbUsed[cyc%wbWindow]; got != want {
			t.Errorf("write-port slot of cycle %d = %d, want %d", cyc, got, want)
		}
	}
	c.flushRun()
	if c.raw.ROBOcc.Total != next-1-start {
		t.Errorf("sampled %d cycles, want %d", c.raw.ROBOcc.Total, next-1-start)
	}
	// With the ring empty the skip runs to the next bound, here the limit.
	st.freeWakeSlot(next % wbWindow)
	st.cycle = next
	s.fastForward(st, next+3*wbWindow)
	if st.cycle != next+3*wbWindow {
		t.Fatalf("fast-forward over an empty ring stopped at %d, want the limit %d", st.cycle, next+3*wbWindow)
	}
}
