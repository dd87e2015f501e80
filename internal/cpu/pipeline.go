package cpu

import (
	"errors"
	"sync"

	"repro/internal/cache"
	"repro/internal/power"
	"repro/internal/trace"
)

const (
	wbWindow         = 4096 // write-port scheduling horizon, cycles
	neverCycle       = ^uint64(0)
	wpRingSize       = 64   // fetch history replayed down the wrong path
	maxCyclesPerInst = 2000 // runaway guard
)

// fetchedInst is a fetch-buffer slot (fetched, not yet dispatched).
type fetchedInst struct {
	inst       trace.Inst
	fetchCycle uint64
	wrongPath  bool
	mispred    bool // this branch was mispredicted; fetch went wrong-path
}

// wref identifies an in-flight entry from the wakeup ring or the issue
// list: its sequence number (the identity check, since ROB slots are
// reused) and its ROB slot index (so no division is needed to reach it).
type wref struct {
	seq uint64
	idx int32
}

// farWref is a wakeup event beyond the ring horizon (only reachable under
// extreme write-port pressure); it carries its absolute cycle.
type farWref struct {
	seq   uint64
	cycle uint64
	idx   int32
}

// runState is the transient pipeline state for one Run. It is embedded in
// the Sim as a scratch arena and reset (capacities preserved) between
// runs, keeping the cycle loop allocation-free.
type runState struct {
	rob      []entry // ring, capacity = ROB size
	headSeq  uint64  // sequence number of the oldest in-flight entry
	nextSeq  uint64  // sequence number the next dispatched entry gets
	headIdx  int32   // headSeq % len(rob), maintained incrementally
	nextIdx  int32   // nextSeq % len(rob), maintained incrementally
	robCount int
	iqCount  int
	lsqCount int

	allocInt, allocFp int // allocated physical registers beyond architectural

	regProducer    [trace.NumRegs]int64 // seq of latest in-flight producer, -1 none
	regProducerIdx [trace.NumRegs]int32 // ROB slot of that producer

	// iqList holds the READY issue-queue residents (dispatched, operands
	// available, not yet issued) in ascending sequence order. Entries
	// with outstanding operands are not in the list at all: they are
	// reachable only through their producers' consumer chains (cons) and
	// join the list the cycle their last producer's writeback broadcasts.
	// The merge walk therefore visits exactly the entries the original
	// full-window scan would have acted on, in the same order.
	iqList []wref
	// cons[i] chains the dispatched consumers waiting on the result of
	// the entry in ROB slot i, in ascending sequence order. Chains are
	// truncated on flush and reset when a slot is re-dispatched, so they
	// never hold stale references.
	cons [][]wref

	// wake is the event-driven replacement for the per-cycle window scan:
	// slot c%wbWindow holds the entries whose results complete at cycle c,
	// kept sorted by seq so wakeup events replay in original scan order.
	wake    [wbWindow][]wref
	wakeFar []farWref // completions beyond the ring horizon

	fetchBuf []fetchedInst
	fbHead   int
	wbUsed   [wbWindow]uint16

	cycle           uint64
	fetchStallUntil uint64
	wrongPathMode   bool
	unresolved      int // in-flight correct-path branches not yet resolved

	stash      trace.Inst // branch refused by the in-flight limit, refetched later
	stashValid bool

	wpRing  [wpRingSize]trace.Inst
	wpCount int
	wpPos   int

	fetchedCorrect uint64

	// stepped counts the cycles the main loop executed one at a time (the
	// rest were fast-forwarded). Telemetry only.
	stepped uint64

	// windowGen increments whenever the in-flight window changes in a way
	// the collector's speculation walk can observe (dispatch, issue,
	// commit, branch resolution, flush). The collector caches its walk
	// against it.
	windowGen uint64

	// Slice fast path: when the Source is a *SliceSource its contents are
	// mirrored here so fetch indexes the slice directly instead of making
	// an interface call per instruction.
	srcFast []trace.Inst
	srcPos  int

	acc power.Account
	res Result
	cnt *collector
}

// fbLen returns the number of fetched-but-undispatched instructions.
func (st *runState) fbLen() int { return len(st.fetchBuf) - st.fbHead }

// statePool holds run-state arenas released by finished Sims (see
// Sim.Release).
var statePool sync.Pool

// getState returns the Sim's scratch run state, reset for a fresh run
// with slice capacities preserved. A Sim's first run takes an arena from
// statePool when one is there: the reset below is the same one a Sim
// already relies on between its warmup and measured runs, and the ROB
// ring reuses slots within a run the same way. The ROB ring and the
// consumer-chain arena are resliced to the configured ROB size whenever
// their capacity allows (ROB size varies from one search configuration to
// the next) and reallocated only to grow; stale slots are harmless, since
// dispatch overwrites a slot before anything reads it.
func (s *Sim) getState() *runState {
	st := s.scratch
	if st == nil {
		st, _ = statePool.Get().(*runState)
		if st == nil {
			st = &runState{}
		}
		s.scratch = st
	}
	if cap(st.rob) < s.robSize {
		st.rob = make([]entry, s.robSize)
	}
	st.rob = st.rob[:s.robSize]
	st.headSeq, st.nextSeq = 0, 0
	st.headIdx, st.nextIdx = 0, 0
	st.robCount, st.iqCount, st.lsqCount = 0, 0, 0
	st.allocInt, st.allocFp = 0, 0
	for i := range st.regProducer {
		st.regProducer[i] = -1
	}
	st.iqList = st.iqList[:0]
	if cap(st.cons) < s.robSize {
		st.cons = make([][]wref, s.robSize)
	}
	st.cons = st.cons[:s.robSize]
	for i := range st.cons {
		st.cons[i] = st.cons[i][:0]
	}
	// Wakeup tokens and write-port reservations can outlive a drained
	// run (squashed entries leave both behind); clear them so sequence
	// numbers from a previous run can never alias into this one.
	for i := range st.wake {
		st.wake[i] = st.wake[i][:0]
	}
	st.wakeFar = st.wakeFar[:0]
	st.wbUsed = [wbWindow]uint16{}
	if cap(st.fetchBuf) < s.width*8 {
		st.fetchBuf = make([]fetchedInst, 0, s.width*8)
	}
	st.fetchBuf = st.fetchBuf[:0]
	st.fbHead = 0
	st.cycle = 0
	st.fetchStallUntil = 0
	st.wrongPathMode = false
	st.unresolved = 0
	st.stashValid = false
	st.wpCount, st.wpPos = 0, 0
	st.fetchedCorrect = 0
	st.windowGen = 0
	st.stepped = 0
	st.srcFast = nil
	st.srcPos = 0
	st.acc = power.Account{}
	st.res = Result{}
	st.cnt = nil
	return st
}

var errCycleLimit = errors.New("cpu: cycle limit exceeded (pipeline deadlock?)")

// Run simulates n correct-path instructions from src under opts and
// returns the result. The simulation ends when all n instructions have
// committed and the pipeline has drained.
func (s *Sim) Run(src Source, n int, opts Options) (*Result, error) {
	if n <= 0 {
		return nil, errors.New("cpu: instruction count must be positive")
	}
	if opts.WarmupInsts > 0 {
		warm := opts
		warm.WarmupInsts = 0
		warm.Collect = false
		warm.StartStall = 0
		warm.FlushCaches = opts.FlushCaches
		warm.ExtraEnergyPJ = 0
		if _, err := s.Run(src, opts.WarmupInsts, warm); err != nil {
			return nil, err
		}
		opts.FlushCaches = false
	}
	if opts.FlushCaches {
		s.hier.Flush()
	}
	s.bp.ResetStats()
	s.hier.L1I.ResetStats()
	s.hier.L1D.ResetStats()
	s.hier.L2.ResetStats()

	st := s.getState()
	st.fetchStallUntil = opts.StartStall
	if opts.Collect {
		c, err := newCollector(s.cfg, opts.SampledSets)
		if err != nil {
			return nil, err
		}
		st.cnt = c
	}
	ss, fast := src.(*SliceSource)
	if fast {
		st.srcFast = ss.insts
		st.srcPos = ss.pos
	}

	target := uint64(n)
	limit := uint64(n)*maxCyclesPerInst + 100_000
	for {
		st.cycle++
		st.stepped++
		if st.cycle > limit {
			if fast {
				ss.pos = st.srcPos
			}
			return nil, errCycleLimit
		}
		cProg := s.commit(st)
		iProg, readyBlocked := s.issueAndWake(st)
		dProg := s.dispatch(st)
		fProg := s.fetch(st, src, target)

		if st.cnt != nil {
			st.cnt.perCycle(s, st)
		}
		// Expire the write-port slot for the cycle that just passed; it is
		// not needed again until the ring wraps, far beyond any latency.
		st.wbUsed[st.cycle%wbWindow] = 0

		if st.res.Committed >= target && st.robCount == 0 && st.fbLen() == 0 && !st.stashValid {
			break
		}
		if !(cProg || iProg || dProg || fProg || readyBlocked) {
			// No stage moved and nothing is ready-but-resource-blocked:
			// every future unblock is a scheduled event, so the clock can
			// fast-forward through the dead cycles.
			s.fastForward(st, limit)
		}
	}
	if fast {
		ss.pos = st.srcPos
	}

	// Per-cycle energy: clock tree plus the conditional-clocking floor,
	// charged once per simulated cycle after the reconfiguration charge —
	// the same float additions in the same order as charging each cycle
	// as it passes, since nothing else touches the clock account or reads
	// the account mid-run. (A batched multiply would round differently.)
	clk := 0.0
	if opts.ExtraEnergyPJ > 0 {
		clk = opts.ExtraEnergyPJ
	}
	for c := uint64(0); c < st.cycle; c++ {
		clk += s.perCycPJ
	}
	st.acc.Add(power.StructClock, clk)

	st.res.Config = s.cfg
	st.res.Cycles = st.cycle
	st.res.BranchLookups = s.bp.Lookups
	st.res.Mispredicts = s.bp.Mispredicts
	st.res.BTBMisses = s.bp.BTBMisses
	st.res.L1IAccesses = s.hier.L1I.Accesses
	st.res.L1IMisses = s.hier.L1I.Misses
	st.res.L1DAccesses = s.hier.L1D.Accesses
	st.res.L1DMisses = s.hier.L1D.Misses
	st.res.L2Accesses = s.hier.L2.Accesses
	st.res.L2Misses = s.hier.L2.Misses
	st.res.Energy = s.pm.Summarize(&st.acc, st.cycle)
	st.res.finalize(s.pm)
	if st.cnt != nil {
		st.res.Counters = st.cnt.finish(s, &st.res)
	}
	obsRuns.Inc()
	obsInsts.Add(st.res.Committed)
	obsCycles.Add(st.res.Cycles)
	obsStepped.Add(st.stepped)
	out := st.res
	return &out, nil
}

// fastForward advances the clock through cycles in which no stage can act.
// It stops one cycle short of the next scheduled event: a wakeup token, a
// far-horizon completion, the fetch-stall release, or the front-end
// delivery of the oldest buffered instruction while that delivery is
// still in the future. A delivered head that dispatch refused is blocked
// on ROB, IQ, LSQ or register space, which only a commit, an issue or a
// flush frees, and each of those follows a wakeup event that already
// bounds the skip. The skip also stops at the cycle limit, so the main
// loop reports a deadlock. Skipped cycles replay the main loop's per-cycle
// work in cycle order: counter sampling when collecting, and the
// write-port slot expiry. (The clock-tree charge is made once per cycle
// after the run.)
func (s *Sim) fastForward(st *runState, limit uint64) {
	stop := limit + 1
	if st.fetchStallUntil > st.cycle && st.fetchStallUntil < stop {
		stop = st.fetchStallUntil
	}
	if st.fbLen() > 0 {
		if fe := st.fetchBuf[st.fbHead].fetchCycle + s.feLat; fe > st.cycle && fe < stop {
			stop = fe
		}
	}
	for _, f := range st.wakeFar {
		if f.cycle < stop {
			stop = f.cycle
		}
	}
	c := st.cycle
	for c+1 < stop && len(st.wake[(c+1)%wbWindow]) == 0 {
		c++
		if st.cnt != nil {
			st.cycle = c
			st.cnt.perCycle(s, st)
		}
		st.wbUsed[c%wbWindow] = 0
	}
	st.cycle = c
}

// commit retires up to Width completed entries from the ROB head, in
// order.
func (s *Sim) commit(st *runState) bool {
	w := s.width
	prog := false
	for k := 0; k < w && st.robCount > 0; k++ {
		e := &st.rob[st.headIdx]
		if e.mispred && !e.resolved {
			return prog // wait for the flush this branch will trigger
		}
		if e.state != stCompleted || e.complete > st.cycle {
			return prog
		}
		if e.wrongPath {
			// Wrong-path entries are removed by the flush, never committed.
			return prog
		}
		if e.inLSQ {
			st.lsqCount--
		}
		if e.inst.Dst >= 0 && st.regProducer[e.inst.Dst] == int64(st.headSeq) {
			st.regProducer[e.inst.Dst] = -1
		}
		s.freeDst(st, e)
		st.acc.Add(power.StructROB, s.pm.ROBAccess) // retirement read
		st.headSeq++
		st.headIdx++
		if int(st.headIdx) == len(st.rob) {
			st.headIdx = 0
		}
		st.robCount--
		st.res.Committed++
		st.windowGen++
		prog = true
	}
	return prog
}

func (s *Sim) freeDst(st *runState, e *entry) {
	switch e.dstBank {
	case 0:
		st.allocInt--
	case 1:
		st.allocFp--
	}
	e.dstBank = -1
}

// issueAndWake replaces the original per-cycle O(ROB) window scan. The
// cycle's wakeup tokens (completion events) and the issue-queue residents
// are both ordered by sequence number, so a single merge walk visits
// exactly the entries the full scan would have acted on, in the same
// order — every state transition and energy charge replays identically.
func (s *Sim) issueAndWake(st *runState) (progress, readyBlocked bool) {
	if len(st.wakeFar) > 0 {
		st.drainFar()
	}
	slot := st.cycle % wbWindow
	wake := st.wake[slot]
	if len(wake) == 0 && len(st.iqList) == 0 {
		// No completion is due and nothing is ready to issue: the walk
		// would visit nothing and charge nothing, so skip it outright.
		// (Waiting entries live in consumer chains, not the list, and
		// can only become ready through a completion.)
		return false, false
	}
	iq := st.iqList

	issueBudget := s.width
	rdPorts := s.rdPorts
	intALU, intMul, fpALU, fpMul, memPort := s.nIntALU, s.nIntMul, s.nFpALU, s.nFpMul, s.nMemPort
	rdUsed := 0

	wi, qi, qw := 0, 0, 0
	for wi < len(wake) || qi < len(iq) {
		if wi < len(wake) && (qi >= len(iq) || wake[wi].seq <= iq[qi].seq) {
			// Writeback transition.
			w := wake[wi]
			wi++
			e := &st.rob[w.idx]
			// Tokens are not retracted on flush; squashed entries leave
			// stale tokens behind. A token acts only if its entry is still
			// the one it was issued for and is due exactly now.
			if w.seq < st.headSeq || w.seq >= st.nextSeq || e.state != stIssued || e.complete != st.cycle {
				continue
			}
			progress = true
			e.state = stCompleted
			// Wakeup broadcast to the issue queue.
			st.acc.Add(power.StructIQ, s.pm.IQWakeup)
			if e.inst.Dst >= 0 && !e.wrongPath {
				st.acc.Add(power.StructRF, s.pm.RFWrite)
			}
			if e.inst.Op == trace.Branch && !e.resolved && !e.wrongPath {
				e.resolved = true
				st.unresolved--
				st.windowGen++
				if e.mispred {
					s.flushAfter(st, w.seq)
					// Everything not yet visited by this walk is younger
					// than the branch and was just squashed: drop the rest
					// of the candidate list and the cycle's tokens.
					st.iqList = iq[:qw]
					st.wake[slot] = wake[:0]
					return true, readyBlocked
				}
			}
			// Wake the consumers waiting on this result; ones whose last
			// operand this is become issuable this very cycle and join
			// the list at their sequence position — ahead of the walk
			// cursor, since they are younger than this token — exactly
			// where the original scan would have found them ready.
			if ch := st.cons[w.idx]; len(ch) > 0 {
				for _, cr := range ch {
					t := &st.rob[cr.idx]
					t.pending--
					if t.pending == 0 {
						iq = append(iq, wref{})
						p := len(iq) - 1
						for p > qi && iq[p-1].seq > cr.seq {
							iq[p] = iq[p-1]
							p--
						}
						iq[p] = cr
					}
				}
				st.cons[w.idx] = ch[:0]
			}
			continue
		}
		// Issue candidate, oldest first. Everything in the list has its
		// operands available (pending reached zero), so only structural
		// resources gate issue.
		if issueBudget == 0 && wi == len(wake) {
			// Budget spent and no tokens left: nothing that follows can
			// transition or charge energy, so bulk-copy the tail.
			qw += copy(iq[qw:], iq[qi:])
			break
		}
		c := iq[qi]
		qi++
		if issueBudget == 0 {
			iq[qw] = c
			qw++
			continue
		}
		e := &st.rob[c.idx]
		nsrc := 0
		if e.inst.Src1 >= 0 {
			nsrc++
		}
		if e.inst.Src2 >= 0 {
			nsrc++
		}
		if rdUsed+nsrc > rdPorts {
			iq[qw] = c
			qw++
			readyBlocked = true
			continue
		}
		var fu *int
		switch e.inst.Op {
		case trace.IntALU, trace.Branch, trace.Store:
			fu = &intALU
		case trace.IntMul:
			fu = &intMul
		case trace.FpALU:
			fu = &fpALU
		case trace.FpMul:
			fu = &fpMul
		default: // Load
			fu = &memPort
		}
		if *fu == 0 || (e.inst.Op == trace.Store && memPort == 0) {
			iq[qw] = c
			qw++
			readyBlocked = true
			continue
		}
		*fu--
		if e.inst.Op == trace.Store {
			memPort--
		}
		rdUsed += nsrc
		issueBudget--
		progress = true

		lat := s.latTab[e.inst.Op]
		st.acc.Add(power.StructIQ, s.pm.IQIssue)
		st.acc.Add(power.StructRF, float64(nsrc)*s.pm.RFRead)
		switch e.inst.Op {
		case trace.Load, trace.Store:
			lvl := s.hier.AccessData(e.inst.Addr)
			st.acc.Add(power.StructDCache, s.pm.DCacheAccess)
			st.acc.Add(power.StructLSQ, s.pm.LSQAccess)
			if e.inst.Op == trace.Load {
				switch lvl {
				case cache.L2Hit:
					lat = s.l2Lat
					st.acc.Add(power.StructL2, s.pm.L2Access)
				case cache.Memory:
					lat = s.memLat
					st.acc.Add(power.StructL2, s.pm.L2Access+s.pm.MemAccess)
				}
			} else if lvl != cache.L1Hit {
				st.acc.Add(power.StructL2, s.pm.L2Access)
			}
			if st.cnt != nil && !e.wrongPath {
				st.cnt.observeData(e.inst.Addr)
			}
		case trace.IntALU, trace.Branch:
			st.acc.Add(power.StructFU, s.pm.IntOp)
		case trace.IntMul, trace.FpMul:
			st.acc.Add(power.StructFU, s.pm.MulOp)
		case trace.FpALU:
			st.acc.Add(power.StructFU, s.pm.FpOp)
		}

		// Write-port scheduling: completion lands on the first cycle at or
		// after the nominal finish with a free write port.
		fin := st.cycle + lat
		if e.inst.Dst >= 0 {
			for st.wbUsed[fin%wbWindow] >= s.wrPorts {
				fin++
			}
			st.wbUsed[fin%wbWindow]++
		}
		e.complete = fin
		e.state = stIssued
		e.inIQ = false
		st.iqCount--
		st.windowGen++
		st.pushWake(c.seq, c.idx, fin)
		if st.cnt != nil {
			st.cnt.issued(st, e, nsrc)
		}
	}
	st.wake[slot] = wake[:0]
	st.iqList = iq[:qw]
	return progress, readyBlocked
}

// pushWake schedules a completion event for cycle fin, keeping each ring
// slot sorted by sequence number.
func (st *runState) pushWake(seq uint64, idx int32, fin uint64) {
	if fin-st.cycle >= wbWindow {
		st.wakeFar = append(st.wakeFar, farWref{seq: seq, cycle: fin, idx: idx})
		return
	}
	slot := fin % wbWindow
	l := st.wake[slot]
	i := len(l)
	for i > 0 && l[i-1].seq > seq {
		i--
	}
	l = append(l, wref{})
	copy(l[i+1:], l[i:])
	l[i] = wref{seq: seq, idx: idx}
	st.wake[slot] = l
}

// drainFar migrates far-horizon completions into the ring once they come
// within its reach.
func (st *runState) drainFar() {
	kept := st.wakeFar[:0]
	for _, f := range st.wakeFar {
		if f.cycle-st.cycle < wbWindow {
			slot := f.cycle % wbWindow
			l := st.wake[slot]
			i := len(l)
			for i > 0 && l[i-1].seq > f.seq {
				i--
			}
			l = append(l, wref{})
			copy(l[i+1:], l[i:])
			l[i] = wref{seq: f.seq, idx: f.idx}
			st.wake[slot] = l
		} else {
			kept = append(kept, f)
		}
	}
	st.wakeFar = kept
}

// flushAfter squashes every entry younger than seq (all wrong-path),
// restores resource counts, and redirects fetch to the correct path.
func (s *Sim) flushAfter(st *runState, seq uint64) {
	n := len(st.rob)
	idx := int(seq % uint64(n))
	for q := seq + 1; q < st.nextSeq; q++ {
		idx++
		if idx == n {
			idx = 0
		}
		e := &st.rob[idx]
		if e.inIQ {
			st.iqCount--
		}
		if e.inLSQ {
			st.lsqCount--
		}
		s.freeDst(st, e)
		st.robCount--
	}
	st.nextSeq = seq + 1
	st.nextIdx = int32((seq + 1) % uint64(n))
	// Producers among the squashed entries are gone.
	for r := range st.regProducer {
		if st.regProducer[r] > int64(seq) {
			st.regProducer[r] = -1
		}
	}
	// Surviving producers must forget squashed consumers: chains are in
	// ascending sequence order, so the squashed suffix peels off the tail.
	// (Squashed slots' own chains are reset when the slot re-dispatches.)
	idx = int(st.headIdx)
	for q := st.headSeq; q <= seq; q++ {
		ch := st.cons[idx]
		for len(ch) > 0 && ch[len(ch)-1].seq > seq {
			ch = ch[:len(ch)-1]
		}
		st.cons[idx] = ch
		idx++
		if idx == n {
			idx = 0
		}
	}
	st.fetchBuf = st.fetchBuf[:0]
	st.fbHead = 0
	st.wrongPathMode = false
	st.wpPos = 0
	st.windowGen++
	// Redirect: the front-end refill delay is modelled by dispatch's
	// FrontEndStages latency on newly fetched instructions; the extra
	// stall covers resolution-to-redirect wiring.
	redirect := st.cycle + uint64(s.pm.MispredictCycles-s.pm.FrontEndStages)
	if redirect < st.cycle+1 {
		redirect = st.cycle + 1
	}
	if redirect > st.fetchStallUntil {
		st.fetchStallUntil = redirect
	}
}

// dispatch moves fetched instructions into the window, allocating ROB, IQ,
// LSQ and physical-register resources.
func (s *Sim) dispatch(st *runState) bool {
	w := s.width
	fe := s.feLat
	prog := false
	for done := 0; done < w && st.fbHead < len(st.fetchBuf); done++ {
		f := &st.fetchBuf[st.fbHead]
		if f.fetchCycle+fe > st.cycle {
			break // still in the front-end pipeline
		}
		if st.robCount >= s.robSize || st.iqCount >= s.iqSize {
			break
		}
		if f.inst.Op.IsMem() && st.lsqCount >= s.lsqSize {
			break
		}
		bank := int8(-1)
		if f.inst.Dst >= 0 {
			if int(f.inst.Dst) < trace.NumIntRegs {
				if st.allocInt >= s.freeInt {
					break
				}
				st.allocInt++
				bank = 0
			} else {
				if st.allocFp >= s.freeFp {
					break
				}
				st.allocFp++
				bank = 1
			}
		}
		seq := st.nextSeq
		idx := st.nextIdx
		e := &st.rob[idx]
		// Link this entry into its producers' consumer chains; a producer
		// that has already completed leaves the operand available from
		// the start. The slot's own (stale) chain dies with its previous
		// occupant.
		st.cons[idx] = st.cons[idx][:0]
		pend := int8(0)
		if p1, i1 := st.producerOf(f.inst.Src1); p1 >= 0 && st.rob[i1].state != stCompleted {
			st.cons[i1] = append(st.cons[i1], wref{seq: seq, idx: idx})
			pend++
		}
		if p2, i2 := st.producerOf(f.inst.Src2); p2 >= 0 && st.rob[i2].state != stCompleted {
			st.cons[i2] = append(st.cons[i2], wref{seq: seq, idx: idx})
			pend++
		}
		*e = entry{
			inst:      f.inst,
			state:     stDispatched,
			wrongPath: f.wrongPath,
			mispred:   f.mispred,
			complete:  neverCycle,
			dstBank:   bank,
			inIQ:      true,
			pending:   pend,
		}
		if f.inst.Op.IsMem() {
			e.inLSQ = true
			st.lsqCount++
			st.acc.Add(power.StructLSQ, s.pm.LSQAccess)
		}
		if f.inst.Dst >= 0 {
			st.regProducer[f.inst.Dst] = int64(seq)
			st.regProducerIdx[f.inst.Dst] = idx
		}
		if pend == 0 {
			st.iqList = append(st.iqList, wref{seq: seq, idx: idx})
		}
		st.nextSeq++
		st.nextIdx++
		if int(st.nextIdx) == len(st.rob) {
			st.nextIdx = 0
		}
		st.robCount++
		st.iqCount++
		st.windowGen++
		st.acc.Add(power.StructROB, s.pm.ROBAccess)
		st.acc.Add(power.StructIQ, s.pm.IQInsert)
		st.acc.Add(power.StructRename, s.pm.RenameOp)
		if st.cnt != nil {
			st.cnt.dispatched(st, e)
		}
		if f.wrongPath {
			st.res.WrongPath++
		}
		st.fbHead++
		prog = true
	}
	if st.fbHead == len(st.fetchBuf) {
		st.fetchBuf = st.fetchBuf[:0]
		st.fbHead = 0
	}
	return prog
}

// producerOf returns the in-flight producer seq and ROB slot for register
// r, or (-1, 0).
func (st *runState) producerOf(r int8) (int64, int32) {
	if r < 0 {
		return -1, 0
	}
	seq := st.regProducer[r]
	if seq < 0 {
		return -1, 0
	}
	return seq, st.regProducerIdx[r]
}

// pushFetch appends to the fetch buffer, compacting the drained prefix in
// place when the backing array fills so the buffer never reallocates.
func (st *runState) pushFetch(f fetchedInst) {
	if len(st.fetchBuf) == cap(st.fetchBuf) && st.fbHead > 0 {
		n := copy(st.fetchBuf, st.fetchBuf[st.fbHead:])
		st.fetchBuf = st.fetchBuf[:n]
		st.fbHead = 0
	}
	st.fetchBuf = append(st.fetchBuf, f)
}

// fetch brings up to Width instructions into the fetch buffer, consulting
// the I-cache and the branch predictor, honouring the in-flight branch
// limit and injecting wrong-path instructions after a misprediction.
func (s *Sim) fetch(st *runState, src Source, target uint64) bool {
	if st.cycle < st.fetchStallUntil {
		return false
	}
	w := s.width
	full := w * 7
	prog := false
	for k := 0; k < w; k++ {
		if st.fbLen() >= full {
			return prog // fetch buffer nearly full
		}
		var in trace.Inst
		wrong := st.wrongPathMode
		switch {
		case wrong:
			in = s.nextWrongPath(st)
		case st.stashValid:
			in = st.stash
			st.stashValid = false
		case st.fetchedCorrect < target:
			if st.srcFast != nil {
				in = st.srcFast[st.srcPos]
				st.srcPos++
				if st.srcPos == len(st.srcFast) {
					st.srcPos = 0
				}
			} else {
				in = src.Next()
			}
			st.fetchedCorrect++
		default:
			return prog // trace exhausted; drain
		}

		isBranch := in.Op == trace.Branch && !wrong
		if isBranch && st.unresolved >= s.maxBr {
			// Cannot speculate past more in-flight branches: hold the
			// branch and retry next cycle.
			st.stash = in
			st.stashValid = true
			return prog
		}

		fc := st.cycle
		missed := false
		if k == 0 {
			// One I-cache access per fetch group.
			lvl := s.hier.AccessFetch(in.PC)
			st.acc.Add(power.StructICache, s.pm.ICacheAccess)
			if lvl != cache.L1Hit {
				var lat uint64
				if lvl == cache.L2Hit {
					lat = s.l2Lat
					st.acc.Add(power.StructL2, s.pm.L2Access)
				} else {
					lat = s.memLat
					st.acc.Add(power.StructL2, s.pm.L2Access+s.pm.MemAccess)
				}
				st.fetchStallUntil = st.cycle + lat
				fc = st.fetchStallUntil // arrives when the miss returns
				missed = true
			} else if st.cnt != nil && !wrong {
				st.cnt.observeFetch(in.PC)
			}
		}

		f := fetchedInst{inst: in, fetchCycle: fc, wrongPath: wrong}
		if isBranch {
			st.acc.Add(power.StructBpred, s.pm.BpredLookup+s.pm.BTBLookup)
			correct := s.bp.Update(in.PC, in.Taken, in.Target)
			st.unresolved++
			if st.cnt != nil {
				st.cnt.branchFetched(in)
			}
			if !correct {
				f.mispred = true
				st.wrongPathMode = true
			}
		}
		st.pushFetch(f)
		st.res.Fetched++
		prog = true
		if !wrong {
			s.recordFetch(st, in)
		}
		if missed {
			return prog // the group ends at an I-cache miss
		}
		if isBranch && (f.mispred || in.Taken) {
			return prog // redirect (taken) or switch to the wrong path
		}
	}
	return prog
}

// recordFetch appends the instruction to the wrong-path replay ring.
func (s *Sim) recordFetch(st *runState, in trace.Inst) {
	st.wpRing[st.wpCount%wpRingSize] = in
	st.wpCount++
}

// nextWrongPath synthesizes the next wrong-path instruction by replaying
// recent fetch history at a shifted address: plausible nearby code that
// occupies resources and pollutes the caches until the flush.
func (s *Sim) nextWrongPath(st *runState) trace.Inst {
	if st.wpCount == 0 {
		return trace.Inst{Op: trace.IntALU, Dst: 1, Src1: 2, Src2: 3, PC: 0x1000}
	}
	n := st.wpCount
	if n > wpRingSize {
		n = wpRingSize
	}
	// wpPos restarts at 0 on every flush and n is frozen while wrong-path
	// mode is active, so a wrap compare replays the same index sequence
	// the original modulo produced.
	if st.wpPos >= n {
		st.wpPos = 0
	}
	in := st.wpRing[st.wpPos]
	st.wpPos++
	in.PC += 256 // nearby, but distinct, code
	if in.Op.IsMem() {
		in.Addr += 64
	}
	if in.Op == trace.Branch {
		// Wrong-path branches execute as plain ALU ops: they occupy
		// resources but cannot redirect fetch or resolve.
		in.Op = trace.IntALU
		in.Dst = 1
		in.Taken = false
	}
	return in
}
