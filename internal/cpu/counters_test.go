package cpu

import (
	"testing"

	"repro/internal/trace"
)

// specWalk is the reference for the collector's incremental speculation
// counts: the walk over the in-flight window the collector used to make
// whenever the window changed. A queue resident is speculative when it is
// on the wrong path or an older correct-path branch is unresolved.
func specWalk(st *runState) (iqOcc, iqSpec, lsqOcc, lsqSpec int) {
	spec := false
	idx, n := int(st.headIdx), len(st.rob)
	for seq := st.headSeq; seq < st.nextSeq; seq++ {
		e := &st.rob[idx]
		idx++
		if idx == n {
			idx = 0
		}
		if e.inIQ {
			iqOcc++
			if spec || e.wrongPath {
				iqSpec++
			}
		}
		if e.inLSQ {
			lsqOcc++
			if spec || e.wrongPath {
				lsqSpec++
			}
		}
		if e.op == trace.Branch && !e.resolved && !e.wrongPath {
			spec = true
		}
	}
	return iqOcc, iqSpec, lsqOcc, lsqSpec
}

// TestIncrementalSpeculationMatchesWalk holds the incremental IQ/LSQ
// occupancy and speculation counts to the window walk at every stepped
// cycle of every collecting golden case. (Fast-forwarded cycles change
// nothing in the window, so they sample the counts of the stepped cycle
// before them.)
func TestIncrementalSpeculationMatchesWalk(t *testing.T) {
	checked, speculative := 0, 0
	checkCycle = func(st *runState) {
		iqOcc, iqSpec, lsqOcc, lsqSpec := specWalk(st)
		c := st.cnt
		got := [4]int{st.iqCount, st.iqCount - c.iqNonSpec, st.lsqCount, st.lsqCount - c.lsqNonSpec}
		if want := [4]int{iqOcc, iqSpec, lsqOcc, lsqSpec}; got != want {
			t.Fatalf("cycle %d: incremental IQ occ/spec, LSQ occ/spec = %v, window walk = %v",
				st.cycle, got, want)
		}
		checked++
		if iqSpec > 0 {
			speculative++
		}
	}
	defer func() { checkCycle = nil }()
	cases := 0
	for _, gc := range goldenCases() {
		if !gc.opts.Collect {
			continue
		}
		cases++
		s, err := New(gc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(NewSliceSource(mkTrace(t, gc.program, gc.phase, gc.n)), gc.n, gc.opts); err != nil {
			t.Fatal(err)
		}
		s.Release()
	}
	if cases < 5 || checked == 0 || speculative == 0 {
		t.Fatalf("checked %d cycles (%d with speculative IQ residents) over %d cases", checked, speculative, cases)
	}
	t.Logf("checked %d stepped cycles (%d with speculative IQ residents) over %d collecting cases", checked, speculative, cases)
}
