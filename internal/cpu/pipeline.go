package cpu

import (
	"errors"
	"math/bits"
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

// Functional-unit pools, and the pool each op class issues to (a store
// takes an integer ALU and a memory port).
const (
	unitIntALU = iota
	unitIntMul
	unitFpALU
	unitFpMul
	unitMem
	numUnits
)

var opUnit = [trace.NumOpClasses]uint8{
	trace.IntALU: unitIntALU,
	trace.IntMul: unitIntMul,
	trace.FpALU:  unitFpALU,
	trace.FpMul:  unitFpMul,
	trace.Load:   unitMem,
	trace.Store:  unitIntALU,
	trace.Branch: unitIntALU,
}

// fetchedInst is a fetch-buffer slot (fetched, not yet dispatched). It
// keeps only what dispatch reads of the instruction.
type fetchedInst struct {
	fetchCycle uint64
	addr       uint32
	op         trace.OpClass
	dst        int8
	src1, src2 int8
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

// refNode is a wref in a singly linked list kept in a node arena: a
// wakeup token of a ring slot, or a consumer in a producer's chain. next
// is the following node of the same list (0 ends it; node 0 of every
// arena is unused).
type refNode struct {
	seq  uint64
	idx  int32
	next int32
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
	// reachable only through their producers' consumer chains and join
	// the list the cycle their last producer's writeback broadcasts. The
	// merge walk therefore visits exactly the entries the original
	// full-window scan would have acted on, in the same order.
	iqList []wref
	// consNodes is the arena of the consumer chains: entry.consHead lists
	// the dispatched consumers waiting on the entry's result, in
	// ascending sequence order. Chains are truncated on flush and freed
	// when their producer completes or its slot is re-dispatched, so they
	// never hold stale references.
	consNodes []refNode
	consFree  int32 // first node of the free list, 0 if empty

	// The wakeup ring is the event-driven replacement for the per-cycle
	// window scan: slot c%wbWindow lists the entries whose results
	// complete at cycle c, sorted by seq so wakeup events replay in
	// original scan order. The lists' nodes live in one arena, wakeNodes
	// (node 0 is unused, so 0 ends a list), and recycle through a free
	// list. Bit c%wbWindow of wakeOcc says the slot holds a list; its head
	// and tail mean nothing while the bit is clear.
	wakeHead  [wbWindow]int32
	wakeTail  [wbWindow]int32
	wakeOcc   [wbWindow / 64]uint64
	wakeNodes []refNode
	wakeFree  int32     // first node of the free list, 0 if empty
	wakeFar   []farWref // completions beyond the ring horizon

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

	// events counts the charges to the structures that only ever receive
	// one energy constant (ROB, LSQ, rename, D-cache, I-cache, predictor).
	// Each is charged once after the run with Account.AddN, which is bit
	// for bit the same sum.
	events [power.NumStructures]uint64

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
// ring reuses slots within a run the same way. The ROB ring is resliced
// to the configured ROB size whenever its capacity allows (ROB size
// varies from one search configuration to the next), reallocated only to
// grow, and cleared, because dispatch frees a slot's old consumer chain
// before it overwrites the slot. The node arenas restart empty.
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
	clear(st.rob) // no chain of a previous run survives into this one
	st.headSeq, st.nextSeq = 0, 0
	st.headIdx, st.nextIdx = 0, 0
	st.robCount, st.iqCount, st.lsqCount = 0, 0, 0
	st.allocInt, st.allocFp = 0, 0
	for i := range st.regProducer {
		st.regProducer[i] = -1
	}
	st.iqList = st.iqList[:0]
	if st.consNodes == nil {
		st.consNodes = make([]refNode, 1, 256)
	}
	st.consNodes = st.consNodes[:1]
	st.consFree = 0
	// Wakeup tokens and write-port reservations can outlive a drained
	// run (squashed entries leave both behind); clear them so sequence
	// numbers from a previous run can never alias into this one.
	st.wakeOcc = [wbWindow / 64]uint64{}
	if st.wakeNodes == nil {
		st.wakeNodes = make([]refNode, 1, 256)
	}
	st.wakeNodes = st.wakeNodes[:1]
	st.wakeFree = 0
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
	st.stepped = 0
	st.events = [power.NumStructures]uint64{}
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
			st.cnt.perCycle(st)
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
	// charged once per simulated cycle after the reconfiguration charge.
	// AddN makes the same float additions in the same order as charging
	// each cycle as it passes, since nothing else touches the clock
	// account or reads the account mid-run. (A multiply would round
	// differently.) The single-constant structures' event counts are
	// charged the same way.
	if opts.ExtraEnergyPJ > 0 {
		st.acc.Add(power.StructClock, opts.ExtraEnergyPJ)
	}
	st.acc.AddN(power.StructClock, s.perCycPJ, st.cycle)
	for str, n := range st.events {
		if n > 0 {
			st.acc.AddN(power.Structure(str), s.eventPJ[str], n)
		}
	}

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
// loop reports a deadlock.
//
// Skipped cycles replay the main loop's per-cycle work: counter sampling
// when collecting, and the write-port slot expiry. (The clock-tree charge
// is made once per cycle after the run.) With no far-horizon token, the
// next token is found in the ring's occupancy bitmap and the skipped
// cycles are replayed as one batch. That is exact: nothing issues or
// writes back in a skipped cycle, and the window does not change, so
// every skipped cycle samples the same counter signature; and a skipped
// cycle's write-port slot is already 0, because a reservation always has
// a wakeup token in the same slot, except a far-horizon one, whose slot
// is passed and expired before its token leaves wakeFar. With a
// far-horizon token the cycles are replayed one at a time.
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
	c := st.cycle
	if len(st.wakeFar) > 0 {
		for _, f := range st.wakeFar {
			if f.cycle < stop {
				stop = f.cycle
			}
		}
		for c+1 < stop && !st.wakeAt(c+1) {
			c++
			if st.cnt != nil {
				st.cycle = c
				st.cnt.perCycle(st)
			}
			st.wbUsed[c%wbWindow] = 0
		}
		st.cycle = c
		return
	}
	if c+1 >= stop {
		return
	}
	next := st.nextWake(c+1, stop)
	if n := next - 1 - c; n > 0 {
		if st.cnt != nil {
			st.cnt.idle(st, n)
		}
		st.expireWritePorts(c+1, n)
		st.cycle = next - 1
	}
}

// wakeAt reports whether the ring holds tokens for cycle c.
func (st *runState) wakeAt(c uint64) bool {
	slot := c % wbWindow
	return st.wakeOcc[slot/64]&(1<<(slot%64)) != 0
}

// nextWake returns the first cycle in [from, stop) whose ring slot holds
// tokens, or stop if there is none. Ring tokens all complete within
// wbWindow cycles of now, so one lap of the bitmap covers them.
func (st *runState) nextWake(from, stop uint64) uint64 {
	span := stop - from
	if span > wbWindow {
		span = wbWindow
	}
	slot := from % wbWindow
	for off := uint64(0); off < span; {
		bit := slot % 64
		word := st.wakeOcc[slot/64] >> bit
		n := 64 - bit
		if n > span-off {
			n = span - off
			word &= 1<<n - 1
		}
		if word != 0 {
			return from + off + uint64(bits.TrailingZeros64(word))
		}
		off += n
		slot = (slot + n) % wbWindow
	}
	return stop
}

// expireWritePorts clears the write-port slots of the n cycles from from.
func (st *runState) expireWritePorts(from, n uint64) {
	if n >= wbWindow {
		st.wbUsed = [wbWindow]uint16{}
		return
	}
	lo := from % wbWindow
	if hi := lo + n; hi <= wbWindow {
		clear(st.wbUsed[lo:hi])
	} else {
		clear(st.wbUsed[lo:])
		clear(st.wbUsed[:hi-wbWindow])
	}
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
			if st.cnt != nil {
				st.cnt.lsqNonSpec-- // committed entries precede every unresolved branch
			}
		}
		if e.dst >= 0 && st.regProducer[e.dst] == int64(st.headSeq) {
			st.regProducer[e.dst] = -1
		}
		s.freeDst(st, e)
		st.events[power.StructROB]++ // retirement read
		st.headSeq++
		st.headIdx++
		if int(st.headIdx) == len(st.rob) {
			st.headIdx = 0
		}
		st.robCount--
		st.res.Committed++
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
	// wp walks this cycle's tokens (0 when none is left). Tokens pushed
	// during the walk complete in later cycles, so they never join this
	// slot, and its nodes go back to the free list only after the walk.
	wp := int32(0)
	if st.wakeAt(st.cycle) {
		wp = st.wakeHead[slot]
	} else if len(st.iqList) == 0 {
		// No completion is due and nothing is ready to issue: the walk
		// would visit nothing and charge nothing, so skip it outright.
		// (Waiting entries live in consumer chains, not the list, and
		// can only become ready through a completion.)
		return false, false
	}
	iq := st.iqList

	issueBudget := s.width
	rdPorts := s.rdPorts
	units := s.units // free functional units of each pool this cycle
	rdUsed := 0
	// The walk's energy charges accumulate in locals, in the same order
	// per structure as charging the account directly, and are stored back
	// on both exits.
	acc := &st.acc.DynamicPJ
	iqPJ, rfPJ, fuPJ, l2PJ := acc[power.StructIQ], acc[power.StructRF], acc[power.StructFU], acc[power.StructL2]

	qi, qw := 0, 0
	for wp != 0 || qi < len(iq) {
		if wp != 0 && (qi >= len(iq) || st.wakeNodes[wp].seq <= iq[qi].seq) {
			// Writeback transition.
			w := st.wakeNodes[wp]
			wp = w.next
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
			iqPJ += s.pm.IQWakeup
			if e.dst >= 0 && !e.wrongPath {
				rfPJ += s.pm.RFWrite
			}
			if e.op == trace.Branch && !e.resolved && !e.wrongPath {
				e.resolved = true
				st.unresolved--
				if e.mispred {
					s.flushAfter(st, w.seq)
					if st.cnt != nil {
						st.cnt.resolved(st, w.seq)
					}
					// Everything not yet visited by this walk is younger
					// than the branch and was just squashed: drop the rest
					// of the candidate list and the cycle's tokens.
					st.iqList = iq[:qw]
					st.freeWakeSlot(slot)
					acc[power.StructIQ], acc[power.StructRF], acc[power.StructFU], acc[power.StructL2] = iqPJ, rfPJ, fuPJ, l2PJ
					return true, readyBlocked
				}
				if st.cnt != nil {
					st.cnt.resolved(st, w.seq)
				}
			}
			// Wake the consumers waiting on this result; ones whose last
			// operand this is become issuable this very cycle and join
			// the list at their sequence position — ahead of the walk
			// cursor, since they are younger than this token — exactly
			// where the original scan would have found them ready.
			if h := e.consHead; h != 0 {
				for n := h; n != 0; {
					cn := st.consNodes[n]
					n = cn.next
					t := &st.rob[cn.idx]
					t.pending--
					if t.pending == 0 {
						iq = append(iq, wref{})
						p := len(iq) - 1
						for p > qi && iq[p-1].seq > cn.seq {
							iq[p] = iq[p-1]
							p--
						}
						iq[p] = wref{seq: cn.seq, idx: cn.idx}
					}
				}
				st.freeCons(h, e.consTail)
				e.consHead = 0
			}
			continue
		}
		// Issue candidate, oldest first. Everything in the list has its
		// operands available (pending reached zero), so only structural
		// resources gate issue.
		if issueBudget == 0 && wp == 0 {
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
		nsrc := int(e.nsrc)
		if rdUsed+nsrc > rdPorts {
			iq[qw] = c
			qw++
			readyBlocked = true
			continue
		}
		// Claim the functional unit; a store also takes a memory port.
		op := e.op
		u := opUnit[op]
		if units[u] == 0 || (op == trace.Store && units[unitMem] == 0) {
			iq[qw] = c
			qw++
			readyBlocked = true
			continue
		}
		units[u]--
		if op == trace.Store {
			units[unitMem]--
		}
		rdUsed += nsrc
		issueBudget--
		progress = true

		// The charges of one issue go to distinct structures, so their
		// order among themselves is immaterial. A memory op's unit charge
		// is 0, and adding 0 leaves the (non-negative) sum unchanged.
		lat := s.latTab[op]
		iqPJ += s.pm.IQIssue
		rfPJ += s.readPJ[nsrc&3]
		fuPJ += s.unitPJ[op]
		if e.op == trace.Load || e.op == trace.Store {
			lvl := s.hier.AccessData(e.addr)
			st.events[power.StructDCache]++
			st.events[power.StructLSQ]++
			if e.op == trace.Load {
				switch lvl {
				case cache.L2Hit:
					lat = s.l2Lat
					l2PJ += s.pm.L2Access
				case cache.Memory:
					lat = s.memLat
					l2PJ += float64(s.pm.L2Access + s.pm.MemAccess)
				}
			} else if lvl != cache.L1Hit {
				l2PJ += s.pm.L2Access
			}
			if st.cnt != nil && !e.wrongPath {
				st.cnt.observeData(e.addr)
			}
		}

		// Write-port scheduling: completion lands on the first cycle at or
		// after the nominal finish with a free write port.
		fin := st.cycle + lat
		if e.dst >= 0 {
			for st.wbUsed[fin%wbWindow] >= s.wrPorts {
				fin++
			}
			st.wbUsed[fin%wbWindow]++
		}
		e.complete = fin
		e.state = stIssued
		e.inIQ = false
		st.iqCount--
		st.pushWake(c.seq, c.idx, fin)
		if st.cnt != nil {
			st.cnt.issued(e, c.seq, nsrc)
		}
	}
	st.freeWakeSlot(slot)
	st.iqList = iq[:qw]
	acc[power.StructIQ], acc[power.StructRF], acc[power.StructFU], acc[power.StructL2] = iqPJ, rfPJ, fuPJ, l2PJ
	return progress, readyBlocked
}

// pushWake schedules a completion event for cycle fin.
func (st *runState) pushWake(seq uint64, idx int32, fin uint64) {
	if fin-st.cycle >= wbWindow {
		st.wakeFar = append(st.wakeFar, farWref{seq: seq, cycle: fin, idx: idx})
		return
	}
	st.insertWake(fin%wbWindow, seq, idx)
}

// insertWake adds a token to a ring slot's list after every token with a
// lower or equal seq. Tokens mostly arrive in seq order, so the common
// case appends at the tail.
func (st *runState) insertWake(slot, seq uint64, idx int32) {
	n := st.wakeFree
	if n != 0 {
		st.wakeFree = st.wakeNodes[n].next
	} else {
		n = int32(len(st.wakeNodes))
		st.wakeNodes = append(st.wakeNodes, refNode{})
	}
	nodes := st.wakeNodes
	nodes[n] = refNode{seq: seq, idx: idx}
	occ := &st.wakeOcc[slot/64]
	if bit := uint64(1) << (slot % 64); *occ&bit == 0 {
		*occ |= bit
		st.wakeHead[slot], st.wakeTail[slot] = n, n
		return
	}
	if t := st.wakeTail[slot]; nodes[t].seq <= seq {
		nodes[t].next = n
		st.wakeTail[slot] = n
		return
	}
	h := st.wakeHead[slot]
	if nodes[h].seq > seq {
		nodes[n].next = h
		st.wakeHead[slot] = n
		return
	}
	// The tail's seq is higher, so the walk stops before it.
	p := h
	for nodes[nodes[p].next].seq <= seq {
		p = nodes[p].next
	}
	nodes[n].next = nodes[p].next
	nodes[p].next = n
}

// freeWakeSlot returns a ring slot's tokens to the free list.
func (st *runState) freeWakeSlot(slot uint64) {
	occ := &st.wakeOcc[slot/64]
	if bit := uint64(1) << (slot % 64); *occ&bit != 0 {
		st.wakeNodes[st.wakeTail[slot]].next = st.wakeFree
		st.wakeFree = st.wakeHead[slot]
		*occ &^= bit
	}
}

// drainFar migrates far-horizon completions into the ring once they come
// within its reach.
func (st *runState) drainFar() {
	kept := st.wakeFar[:0]
	for _, f := range st.wakeFar {
		if f.cycle-st.cycle < wbWindow {
			st.insertWake(f.cycle%wbWindow, f.seq, f.idx)
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
	// ascending sequence order, so the squashed consumers are a suffix.
	// (Squashed slots' own chains are freed when the slot re-dispatches.)
	idx = int(st.headIdx)
	for q := st.headSeq; q <= seq; q++ {
		if e := &st.rob[idx]; e.consHead != 0 && st.consNodes[e.consTail].seq > seq {
			st.truncateCons(e, seq)
		}
		idx++
		if idx == n {
			idx = 0
		}
	}
	st.fetchBuf = st.fetchBuf[:0]
	st.fbHead = 0
	st.wrongPathMode = false
	st.wpPos = 0
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
		if f.op.IsMem() && st.lsqCount >= s.lsqSize {
			break
		}
		bank := int8(-1)
		if f.dst >= 0 {
			if int(f.dst) < trace.NumIntRegs {
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
		if e.consHead != 0 {
			st.freeCons(e.consHead, e.consTail)
		}
		pend := int8(0)
		if p1, i1 := st.producerOf(f.src1); p1 >= 0 && st.rob[i1].state != stCompleted {
			st.appendCons(&st.rob[i1], seq, idx)
			pend++
		}
		if p2, i2 := st.producerOf(f.src2); p2 >= 0 && st.rob[i2].state != stCompleted {
			st.appendCons(&st.rob[i2], seq, idx)
			pend++
		}
		nsrc := int8(0)
		if f.src1 >= 0 {
			nsrc++
		}
		if f.src2 >= 0 {
			nsrc++
		}
		// Field by field: a composite literal is assembled on the stack
		// and block-copied, and the copy stalls on the byte stores.
		mem := f.op.IsMem()
		e.complete = neverCycle
		e.addr = f.addr
		e.op = f.op
		e.dst = f.dst
		e.nsrc = nsrc
		e.state = stDispatched
		e.pending = pend
		e.dstBank = bank
		e.wrongPath = f.wrongPath
		e.mispred = f.mispred
		e.resolved = false
		e.inIQ = true
		e.inLSQ = mem
		e.consHead, e.consTail = 0, 0
		if mem {
			st.lsqCount++
			st.events[power.StructLSQ]++
		}
		if f.dst >= 0 {
			st.regProducer[f.dst] = int64(seq)
			st.regProducerIdx[f.dst] = idx
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
		st.events[power.StructROB]++
		st.acc.Add(power.StructIQ, s.pm.IQInsert)
		st.events[power.StructRename]++
		if st.cnt != nil {
			st.cnt.dispatched(e, seq)
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

// appendCons adds the consumer (seq, idx) to the end of p's chain.
func (st *runState) appendCons(p *entry, seq uint64, idx int32) {
	n := st.consFree
	if n != 0 {
		st.consFree = st.consNodes[n].next
	} else {
		n = int32(len(st.consNodes))
		st.consNodes = append(st.consNodes, refNode{})
	}
	st.consNodes[n] = refNode{seq: seq, idx: idx}
	if p.consHead == 0 {
		p.consHead = n
	} else {
		st.consNodes[p.consTail].next = n
	}
	p.consTail = n
}

// freeCons returns the chain head..tail to the free list.
func (st *runState) freeCons(head, tail int32) {
	st.consNodes[tail].next = st.consFree
	st.consFree = head
}

// truncateCons drops the consumers younger than seq from e's chain.
func (st *runState) truncateCons(e *entry, seq uint64) {
	nodes := st.consNodes
	h := e.consHead
	if nodes[h].seq > seq {
		st.freeCons(h, e.consTail)
		e.consHead = 0
		return
	}
	// The tail is younger, so the walk stops before it.
	p := h
	for nodes[nodes[p].next].seq <= seq {
		p = nodes[p].next
	}
	st.freeCons(nodes[p].next, e.consTail)
	nodes[p].next = 0
	e.consTail = p
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

// pushFetch appends a zeroed slot to the fetch buffer and returns it for
// the caller to fill in place, compacting the drained prefix when the
// backing array fills so the buffer never reallocates.
func (st *runState) pushFetch() *fetchedInst {
	if len(st.fetchBuf) == cap(st.fetchBuf) && st.fbHead > 0 {
		n := copy(st.fetchBuf, st.fetchBuf[st.fbHead:])
		st.fetchBuf = st.fetchBuf[:n]
		st.fbHead = 0
	}
	st.fetchBuf = append(st.fetchBuf, fetchedInst{})
	return &st.fetchBuf[len(st.fetchBuf)-1]
}

// fetch brings up to Width instructions into the fetch buffer, consulting
// the I-cache and the branch predictor, honouring the in-flight branch
// limit and injecting wrong-path instructions after a misprediction.
func (s *Sim) fetch(st *runState, src Source, target uint64) bool {
	if st.cycle < st.fetchStallUntil {
		return false
	}
	if st.wrongPathMode {
		return s.fetchWrongPath(st)
	}
	w := s.width
	full := w * 7
	prog := false
	for k := 0; k < w; k++ {
		if st.fbLen() >= full {
			return prog // fetch buffer nearly full
		}
		var in trace.Inst
		switch {
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

		isBranch := in.Op == trace.Branch
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
			if fc, missed = s.fetchLine(st, in.PC); !missed && st.cnt != nil {
				st.cnt.observeFetch(in.PC)
			}
		}

		mispred := false
		if isBranch {
			st.events[power.StructBpred]++
			correct := s.bp.Update(in.PC, in.Taken, in.Target)
			st.unresolved++
			if st.cnt != nil {
				st.cnt.branchFetched(in)
			}
			if !correct {
				mispred = true
				st.wrongPathMode = true
			}
		}
		f := st.pushFetch()
		f.fetchCycle = fc
		f.addr = in.Addr
		f.op = in.Op
		f.dst = in.Dst
		f.src1, f.src2 = in.Src1, in.Src2
		f.mispred = mispred
		st.res.Fetched++
		prog = true
		s.recordFetch(st, in)
		if missed {
			return prog // the group ends at an I-cache miss
		}
		if isBranch && (mispred || in.Taken) {
			return prog // redirect (taken) or switch to the wrong path
		}
	}
	return prog
}

// fetchLine makes a fetch group's one I-cache access at pc. It returns
// the cycle the group's instructions arrive and whether the access
// missed, which stalls fetch until the line returns and ends the group.
func (s *Sim) fetchLine(st *runState, pc uint32) (uint64, bool) {
	lvl := s.hier.AccessFetch(pc)
	st.events[power.StructICache]++
	if lvl == cache.L1Hit {
		return st.cycle, false
	}
	var lat uint64
	if lvl == cache.L2Hit {
		lat = s.l2Lat
		st.acc.Add(power.StructL2, s.pm.L2Access)
	} else {
		lat = s.memLat
		st.acc.Add(power.StructL2, s.pm.L2Access+s.pm.MemAccess)
	}
	st.fetchStallUntil = st.cycle + lat
	return st.fetchStallUntil, true
}

// fetchWrongPath fetches a group down the wrong path: replays of recent
// fetch history at a shifted address, plausible nearby code that occupies
// resources and pollutes the caches until the flush. wpPos restarts at 0
// on every flush and the ring's fill is frozen while wrong-path mode is
// active, so a wrap compare replays the same slot sequence a modulo would.
func (s *Sim) fetchWrongPath(st *runState) bool {
	w := s.width
	full := w * 7
	prog := false
	for k := 0; k < w; k++ {
		if st.fbLen() >= full {
			return prog // fetch buffer nearly full
		}
		f := st.pushFetch()
		f.fetchCycle = st.cycle
		f.wrongPath = true
		pc := uint32(0x1000)
		if st.wpCount == 0 {
			// Nothing to replay yet: a plain ALU op.
			f.op, f.dst, f.src1, f.src2 = trace.IntALU, 1, 2, 3
		} else {
			n := min(st.wpCount, wpRingSize)
			if st.wpPos >= n {
				st.wpPos = 0
			}
			in := &st.wpRing[st.wpPos]
			st.wpPos++
			pc = in.PC + 256 // nearby, but distinct, code
			f.addr, f.op, f.dst, f.src1, f.src2 = in.Addr, in.Op, in.Dst, in.Src1, in.Src2
			if in.Op.IsMem() {
				f.addr += 64
			}
			if in.Op == trace.Branch {
				// Wrong-path branches execute as plain ALU ops: they
				// occupy resources but cannot redirect fetch or resolve.
				f.op = trace.IntALU
				f.dst = 1
			}
		}
		missed := false
		if k == 0 {
			f.fetchCycle, missed = s.fetchLine(st, pc)
		}
		st.res.Fetched++
		prog = true
		if missed {
			return prog // the group ends at an I-cache miss
		}
	}
	return prog
}

// recordFetch appends the instruction to the wrong-path replay ring.
func (s *Sim) recordFetch(st *runState, in trace.Inst) {
	st.wpRing[st.wpCount%wpRingSize] = in
	st.wpCount++
}
