package cache

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestNewCacheValidation(t *testing.T) {
	bad := [][3]int{
		{0, 2, 32},  // zero size
		{32, 0, 32}, // zero ways
		{32, 2, 33}, // non-power-of-two line
		{32, 2, 0},  // zero line
		{1, 64, 32}, // more ways than lines
	}
	for _, b := range bad {
		if _, err := NewCache(b[0], b[1], b[2]); err == nil {
			t.Errorf("NewCache(%v) accepted", b)
		}
	}
	if _, err := NewCache(32, 2, 32); err != nil {
		t.Errorf("valid geometry rejected: %v", err)
	}
}

func TestMustNewCachePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNewCache did not panic")
		}
	}()
	MustNewCache(0, 2, 32)
}

func TestColdMissThenHit(t *testing.T) {
	c := MustNewCache(8, 2, 32)
	if c.Access(0x1000) {
		t.Error("cold access hit")
	}
	if !c.Access(0x1000) {
		t.Error("warm access missed")
	}
	if !c.Access(0x1010) {
		t.Error("same-line access missed")
	}
	if c.Access(0x1020) {
		t.Error("next-line access hit cold")
	}
	if c.Accesses != 4 || c.Misses != 2 {
		t.Errorf("stats = %d/%d, want 4/2", c.Accesses, c.Misses)
	}
}

func TestLRUReplacement(t *testing.T) {
	// 2-way cache: three conflicting lines evict in LRU order.
	c := MustNewCache(8, 2, 32)
	sets := uint32(c.Sets())
	stride := sets * 32 // same set, different tags
	a, b, d := uint32(0x1000), 0x1000+stride, 0x1000+2*stride
	c.Access(a)
	c.Access(b)
	c.Access(a) // a is now MRU, b LRU
	c.Access(d) // evicts b
	if !c.Access(a) {
		t.Error("a should have survived")
	}
	if c.Access(b) {
		t.Error("b should have been evicted")
	}
}

func TestCapacityBehaviour(t *testing.T) {
	// A working set that fits in 64KB but not in 8KB must show a lower
	// miss rate on the larger cache.
	run := func(sizeKB int) float64 {
		c := MustNewCache(sizeKB, 2, 32)
		rng := rand.New(rand.NewPCG(1, 1))
		const wset = 48 * 1024
		for i := 0; i < 200000; i++ {
			c.Access(uint32(rng.IntN(wset)))
		}
		return c.MissRate()
	}
	small, big := run(8), run(128)
	if big >= small {
		t.Errorf("128KB miss rate %.4f not below 8KB %.4f", big, small)
	}
	if big > 0.05 {
		t.Errorf("128KB cache should nearly contain 48KB set; miss rate %.4f", big)
	}
}

func TestFlushAndResetStats(t *testing.T) {
	c := MustNewCache(8, 2, 32)
	c.Access(0x2000)
	c.Flush()
	if c.Access(0x2000) {
		t.Error("hit after flush")
	}
	c.ResetStats()
	if c.Accesses != 0 || c.Misses != 0 || c.MissRate() != 0 {
		t.Error("reset incomplete")
	}
}

func TestHierarchyLevels(t *testing.T) {
	h, err := NewHierarchy(8, 8, 256)
	if err != nil {
		t.Fatal(err)
	}
	if lvl := h.AccessData(0x5000); lvl != Memory {
		t.Errorf("cold access level = %v, want Memory", lvl)
	}
	if lvl := h.AccessData(0x5000); lvl != L1Hit {
		t.Errorf("warm access level = %v, want L1Hit", lvl)
	}
	// Evict from L1 by walking far past its capacity; the block should
	// still be in the 256KB L2.
	for i := uint32(0); i < 64*1024; i += 32 {
		h.AccessData(0x100000 + i)
	}
	if lvl := h.AccessData(0x5000); lvl != L2Hit {
		t.Errorf("L1-evicted access level = %v, want L2Hit", lvl)
	}
	if lvl := h.AccessFetch(0x400000); lvl != Memory {
		t.Errorf("cold fetch = %v, want Memory", lvl)
	}
	if lvl := h.AccessFetch(0x400000); lvl != L1Hit {
		t.Errorf("warm fetch = %v, want L1Hit", lvl)
	}
	if L1Hit.String() != "L1" || L2Hit.String() != "L2" || Memory.String() != "Mem" {
		t.Error("level names wrong")
	}
}

func TestHierarchyValidation(t *testing.T) {
	if _, err := NewHierarchy(0, 8, 256); err == nil {
		t.Error("bad L1I accepted")
	}
	if _, err := NewHierarchy(8, 0, 256); err == nil {
		t.Error("bad L1D accepted")
	}
	if _, err := NewHierarchy(8, 8, 0); err == nil {
		t.Error("bad L2 accepted")
	}
}

func TestProfilerValidation(t *testing.T) {
	if _, err := NewProfiler(32, 32, 8, 10000); err == nil {
		t.Error("oversampled profiler accepted")
	}
	if _, err := NewProfiler(32, 32, 8, 0); err == nil {
		t.Error("zero-sample profiler accepted")
	}
	if _, err := NewProfiler(32, 33, 8, 4); err == nil {
		t.Error("bad line size accepted")
	}
	if _, err := NewProfiler(0, 32, 8, 1); err == nil {
		t.Error("zero size accepted")
	}
}

func TestProfilerStackDistanceSmallLoop(t *testing.T) {
	// A tight loop over 4 blocks has stack distance <= 4 for all
	// reaccesses: everything lands in low bins.
	p, err := NewProfiler(32, 32, 8, 512)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4000; i++ {
		p.Observe(uint32((i % 4) * 32))
	}
	h := p.StackDist
	low := h.Counts[0] + h.Counts[1] + h.Counts[2] + h.Counts[3]
	if frac := float64(low) / float64(h.Total); frac < 0.95 {
		t.Errorf("small-loop stack distances not concentrated low: %.3f (%v)", frac, h.Counts)
	}
}

func TestProfilerStreamHasColdMisses(t *testing.T) {
	// A pure stream never reuses blocks: every block access is cold and
	// lands in the overflow bin.
	p, _ := NewProfiler(32, 32, 8, 512)
	for i := 0; i < 20000; i++ {
		p.Observe(uint32(i * 32))
	}
	if p.StackDist.Counts[HistBins-1] != p.StackDist.Total {
		t.Errorf("stream should be all cold: %v", p.StackDist.Counts)
	}
	if p.Observations() != 20000 {
		t.Errorf("observations = %d", p.Observations())
	}
}

// TestProfilerFinishKeepsResults checks that a finished profile keeps the
// histograms and the observation count and drops the collection tables.
func TestProfilerFinishKeepsResults(t *testing.T) {
	p, _ := NewProfiler(32, 32, 8, 64)
	for i := 0; i < 5000; i++ {
		p.Observe(uint32(i*97) % (64 << 10))
	}
	f := p.Finish()
	if f.Observations() != p.Observations() {
		t.Errorf("finished profile has %d observations, want %d", f.Observations(), p.Observations())
	}
	if f.StackDist != p.StackDist || f.BlockReuse != p.BlockReuse ||
		f.SetReuse != p.SetReuse || f.ReducedSets != p.ReducedSets {
		t.Error("finished profile does not hold the collected histograms")
	}
	if f.lastBlock != nil || f.lastSet != nil || f.lastReduced != nil || f.stack != nil {
		t.Error("finished profile still holds collection tables")
	}
}

func TestProfilerBlockVsSetReuse(t *testing.T) {
	// Two blocks that conflict in the same set: set reuse distance is
	// short (every access hits the same set), block reuse longer.
	p, _ := NewProfiler(8, 32, 8, 128) // 128 sets, sample all
	sets := uint32(128)
	for i := 0; i < 10000; i++ {
		if i%2 == 0 {
			p.Observe(0)
		} else {
			p.Observe(sets * 32) // same set, different block
		}
	}
	if p.SetReuse.Mean() >= p.BlockReuse.Mean() {
		t.Errorf("set reuse mean %.2f not below block reuse mean %.2f",
			p.SetReuse.Mean(), p.BlockReuse.Mean())
	}
}

func TestProfilerReducedSetsExposeConflicts(t *testing.T) {
	// Blocks that map to distinct sets in a large cache but collide in the
	// smallest cache: reduced-set reuse shows shorter distances than the
	// full-size set reuse would at the large geometry.
	p, _ := NewProfiler(128, 32, 8, 2048) // full: 2048 sets, reduced: 128
	full := uint32(2048)
	red := uint32(128)
	// Alternate between two blocks 128 sets apart: distinct in full
	// mapping, same reduced set.
	for i := 0; i < 5000; i++ {
		if i%2 == 0 {
			p.Observe(0)
		} else {
			p.Observe(red * 32)
		}
	}
	_ = full
	if p.ReducedSets.Total == 0 {
		t.Fatal("reduced-set histogram empty")
	}
	if p.ReducedSets.Mean() > 3 {
		t.Errorf("reduced-set distances should be short (conflict): mean bin %.2f", p.ReducedSets.Mean())
	}
}

func TestProfilerSamplingReducesObservations(t *testing.T) {
	full, _ := NewProfiler(32, 32, 8, 512)
	sampled, _ := NewProfiler(32, 32, 8, 16)
	rng := rand.New(rand.NewPCG(5, 5))
	// Working set of 4096 blocks (128KB): inside the full profiler's stack
	// cap, so the two estimators see the same underlying distribution.
	for i := 0; i < 50000; i++ {
		a := uint32(rng.IntN(1 << 17))
		full.Observe(a)
		sampled.Observe(a)
	}
	if sampled.StackDist.Total >= full.StackDist.Total {
		t.Errorf("sampling did not reduce stack histogram volume: %d vs %d",
			sampled.StackDist.Total, full.StackDist.Total)
	}
	// But the *shape* must be similar: compare normalized overflow mass.
	fo := full.StackDist.Normalized()[HistBins-1]
	so := sampled.StackDist.Normalized()[HistBins-1]
	if diff := fo - so; diff > 0.15 || diff < -0.15 {
		t.Errorf("sampled shape diverged: overflow %.3f vs %.3f", so, fo)
	}
}

// Property: a cache never reports more misses than accesses, and hits on
// immediately repeated addresses.
func TestQuickCacheInvariants(t *testing.T) {
	f := func(addrs []uint32) bool {
		c := MustNewCache(16, 2, 32)
		for _, a := range addrs {
			c.Access(a)
			if !c.Access(a) { // immediate re-access must hit
				return false
			}
		}
		return c.Misses <= c.Accesses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: hierarchy levels are consistent — an L1 hit implies the block
// was just accessed, and repeated access is never slower than the first.
func TestQuickHierarchyMonotone(t *testing.T) {
	f := func(addrs []uint32) bool {
		h, err := NewHierarchy(8, 8, 256)
		if err != nil {
			return false
		}
		for _, a := range addrs {
			first := h.AccessData(a)
			second := h.AccessData(a)
			if second > first { // levels ordered L1 < L2 < Memory
				return false
			}
			if second != L1Hit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFillFromPreservesHotLines(t *testing.T) {
	old := MustNewCache(8, 2, 32)
	for i := uint32(0); i < 8*1024; i += 32 {
		old.Access(0x1000 + i) // fill the whole cache
	}
	grown := MustNewCache(32, 2, 32)
	grown.FillFrom(old)
	if grown.Accesses != 0 || grown.Misses != 0 {
		t.Error("FillFrom leaked statistics")
	}
	hits := 0
	for i := uint32(0); i < 8*1024; i += 32 {
		if grown.Access(0x1000 + i) {
			hits++
		}
	}
	if hits < 200 { // 256 lines were resident; most must survive growth
		t.Errorf("only %d/256 lines survived growth", hits)
	}
	grown.ResetStats()

	// Shrinking keeps the subset that fits.
	shrunk := MustNewCache(8, 2, 32)
	shrunk.FillFrom(grown)
	hits = 0
	for i := uint32(0); i < 8*1024; i += 32 {
		if shrunk.Access(0x1000 + i) {
			hits++
		}
	}
	if hits == 0 {
		t.Error("no lines survived shrink")
	}
}
