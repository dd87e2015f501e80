// Package cache implements the simulated memory hierarchy — set-associative
// L1 instruction, L1 data and unified L2 caches with true-LRU replacement —
// plus the cache profiling machinery of the paper: stack distance, block
// reuse distance, set reuse distance and reduced-set reuse distance
// histograms, optionally gathered over a dynamically sampled subset of sets
// (Table IV, Figure 9).
package cache

import (
	"fmt"

	"repro/internal/keyedpool"
	"repro/internal/stats"
)

// Line sizes used throughout, matching SimpleScalar-era defaults.
const (
	L1LineBytes = 32
	L2LineBytes = 64
)

// Level identifies where an access was satisfied.
type Level int

// Access outcomes.
const (
	L1Hit Level = iota
	L2Hit
	Memory
)

// String names the level.
func (l Level) String() string {
	switch l {
	case L1Hit:
		return "L1"
	case L2Hit:
		return "L2"
	default:
		return "Mem"
	}
}

// Cache is one set-associative cache with true-LRU replacement.
type Cache struct {
	sets      uint32
	setMask   uint32 // sets-1; the set count is a power of two
	ways      uint32
	lineShift uint32
	// lines holds one word per line, sets*ways of them: the generation the
	// line was filled in, its block address and its LRU age (0 = most
	// recent), packed as gen<<genShift | block<<blockShift | age. A line
	// is valid only in the current generation; NewCache and Flush bump the
	// generation instead of rewriting every line. Keeping tag and age in
	// one word makes a set one contiguous run of memory.
	lines  []uint64
	genTag uint64 // the current generation << genShift

	Accesses uint64
	Misses   uint64
}

// Line word layout.
const (
	ageMask    = 0xff
	blockShift = 8
	genShift   = blockShift + 32
	genOne     = 1 << genShift
)

// NewCache constructs a cache of sizeKB kilobytes with the given
// associativity and line size (bytes, power of two).
func NewCache(sizeKB, ways, lineBytes int) (*Cache, error) {
	if sizeKB <= 0 || ways <= 0 || lineBytes <= 0 || lineBytes&(lineBytes-1) != 0 {
		return nil, fmt.Errorf("cache: bad geometry sizeKB=%d ways=%d line=%d", sizeKB, ways, lineBytes)
	}
	lines := sizeKB * 1024 / lineBytes
	if lines < ways {
		return nil, fmt.Errorf("cache: %dKB/%dB has %d lines, fewer than %d ways", sizeKB, lineBytes, lines, ways)
	}
	sets := lines / ways
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("cache: set count %d not a power of two", sets)
	}
	c := &Cache{
		sets:    uint32(sets),
		setMask: uint32(sets - 1),
		ways:    uint32(ways),
	}
	for ls := lineBytes; ls > 1; ls >>= 1 {
		c.lineShift++
	}
	n := sets * ways
	if a, ok := arrays.Get(n); ok {
		c.lines, c.genTag = a.lines, a.genTag
	} else {
		// Zeroed words are generation 0, which the bump below retires.
		c.lines = make([]uint64, n)
	}
	c.nextGeneration()
	return c, nil
}

// nextGeneration invalidates every line at once. The ages of invalid
// lines need no reset: a miss takes the first invalid way of its set
// before it compares any age, and a filled way starts at age 0. If the
// generation wraps, the words are cleared for real so no stale line can
// alias the new generation.
func (c *Cache) nextGeneration() {
	c.genTag += genOne
	if c.genTag == 0 {
		clear(c.lines)
		c.genTag = genOne
	}
}

// lineArray is a cache's line storage, recycled through arrays, with
// the generation its lines were last written in.
type lineArray struct {
	lines  []uint64
	genTag uint64
}

// arrays holds released line arrays by line count: Release fills it and
// NewCache drains it.
var arrays keyedpool.Pool[int, *lineArray]

// Release hands the cache's line array to a later NewCache with the same
// line count, which starts it in a new generation: every line is invalid,
// exactly as in a fresh allocation. c must not be used afterwards.
func (c *Cache) Release() {
	if c.lines == nil {
		return
	}
	arrays.Put(len(c.lines), &lineArray{c.lines, c.genTag})
	c.lines = nil
}

// MustNewCache is NewCache but panics on error.
func MustNewCache(sizeKB, ways, lineBytes int) *Cache {
	c, err := NewCache(sizeKB, ways, lineBytes)
	if err != nil {
		panic(err)
	}
	return c
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return int(c.sets) }

// SetOf returns the set index addr maps to.
func (c *Cache) SetOf(addr uint32) uint32 {
	return (addr >> c.lineShift) & c.setMask
}

// BlockOf returns the block (line) address of addr.
func (c *Cache) BlockOf(addr uint32) uint64 {
	return uint64(addr) >> c.lineShift
}

// Access looks up addr, fills on miss, and reports whether the line was
// present before the access (a hit).
func (c *Cache) Access(addr uint32) bool {
	c.Accesses++
	base := c.SetOf(addr) * c.ways
	key := c.genTag | c.BlockOf(addr)<<blockShift
	if c.ways == 2 {
		return c.access2(c.lines[base:base+2], key)
	}
	return c.accessN(c.lines[base:base+c.ways], key)
}

// accessN is Access on one set of any associativity: lines are the set's
// ways and key the accessed block's word at age 0.
func (c *Cache) accessN(lines []uint64, key uint64) bool {
	hitWay := -1
	for w, l := range lines {
		if l&^ageMask == key {
			hitWay = w
			break
		}
	}
	hit := hitWay >= 0
	if !hit {
		c.Misses++
		// Victim: an empty way if any, else the way with the highest age.
		// A line from an older generation is empty.
		victim, oldest := 0, uint64(0)
		for w, l := range lines {
			if l < c.genTag {
				victim = w
				break
			}
			if a := l & ageMask; a >= oldest {
				oldest, victim = a, w
			}
		}
		lines[victim] = key | lines[victim]&ageMask
		hitWay = victim
	}
	for w, l := range lines {
		if l&ageMask < 255 {
			lines[w] = l + 1
		}
	}
	lines[hitWay] &^= ageMask
	return hit
}

// access2 is accessN on a two-way set, unrolled: the same hit test,
// victim choice and age updates (TestAccess2MatchesGeneralLoop). The L1
// caches are two-way, and BenchmarkCacheAccess runs about 16 % faster
// with it than through the loop.
func (c *Cache) access2(lines []uint64, key uint64) bool {
	l0, l1 := lines[0], lines[1]
	hit := true
	way0 := true
	switch {
	case l0&^ageMask == key:
	case l1&^ageMask == key:
		way0 = false
	default:
		hit = false
		c.Misses++
		// An empty way first, else the older way (way 1 on a tie).
		way0 = l0 < c.genTag || (l1 >= c.genTag && l1&ageMask < l0&ageMask)
	}
	if way0 {
		lines[0] = key
		if l1&ageMask < 255 {
			lines[1] = l1 + 1
		}
	} else {
		lines[1] = key
		if l0&ageMask < 255 {
			lines[0] = l0 + 1
		}
	}
	return hit
}

// MissRate returns misses/accesses (0 if no accesses).
func (c *Cache) MissRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Misses) / float64(c.Accesses)
}

// ResetStats clears access statistics but keeps cache contents.
func (c *Cache) ResetStats() { c.Accesses, c.Misses = 0, 0 }

// Flush invalidates all lines (used when the cache is reconfigured).
func (c *Cache) Flush() { c.nextGeneration() }

// Hierarchy is the three-level memory system of the simulated processor.
type Hierarchy struct {
	L1I *Cache
	L1D *Cache
	L2  *Cache
}

// NewHierarchy builds the hierarchy for the given Table I cache sizes (KB).
// Associativities are fixed at 2/2/8 as in the paper's era of machines.
func NewHierarchy(icacheKB, dcacheKB, l2KB int) (*Hierarchy, error) {
	l1i, err := NewCache(icacheKB, 2, L1LineBytes)
	if err != nil {
		return nil, fmt.Errorf("L1I: %w", err)
	}
	l1d, err := NewCache(dcacheKB, 2, L1LineBytes)
	if err != nil {
		return nil, fmt.Errorf("L1D: %w", err)
	}
	l2, err := NewCache(l2KB, 8, L2LineBytes)
	if err != nil {
		return nil, fmt.Errorf("L2: %w", err)
	}
	return &Hierarchy{L1I: l1i, L1D: l1d, L2: l2}, nil
}

// Release releases every level's line arrays (see Cache.Release).
func (h *Hierarchy) Release() {
	h.L1I.Release()
	h.L1D.Release()
	h.L2.Release()
}

// AccessData looks up a data address through the hierarchy and returns the
// level that satisfied it.
func (h *Hierarchy) AccessData(addr uint32) Level {
	if h.L1D.Access(addr) {
		return L1Hit
	}
	if h.L2.Access(addr) {
		return L2Hit
	}
	return Memory
}

// AccessFetch looks up an instruction address through the hierarchy and
// returns the level that satisfied it.
func (h *Hierarchy) AccessFetch(pc uint32) Level {
	if h.L1I.Access(pc) {
		return L1Hit
	}
	if h.L2.Access(pc) {
		return L2Hit
	}
	return Memory
}

// Flush invalidates all three caches.
func (h *Hierarchy) Flush() {
	h.L1I.Flush()
	h.L1D.Flush()
	h.L2.Flush()
}

// Profiler gathers the paper's cache locality histograms for one access
// stream (one cache's address stream on the profiling configuration):
//
//   - stack distance: LRU-stack depth of each reaccessed block, the
//     classical capacity signature [19, 20];
//   - block reuse distance: accesses since the same block was last touched;
//   - set reuse distance: accesses since the same set was last touched;
//   - reduced set reuse distance: set reuse computed after mapping
//     addresses onto the *smallest* configurable cache's set count,
//     "emulating" the smallest size to expose conflicts (paper §III-B2).
//
// All histograms use log2-spaced bins. Set-indexed histograms honour
// dynamic set sampling [27]: only sampled sets contribute, cutting profiling
// energy (Table IV, Figure 9).
type Profiler struct {
	lineShift   uint32
	sets        uint32
	reducedSets uint32

	StackDist   *stats.Histogram
	BlockReuse  *stats.Histogram
	SetReuse    *stats.Histogram
	ReducedSets *stats.Histogram

	sampleEvery uint32 // sample sets where set % sampleEvery == 0

	clock uint64
	collectionTables
	maxStackSize int
}

// collectionTables are a profiler's last-touch tables and LRU stack: the
// state only collection reads, recycled through profTables. The
// last-touch tables are an open-addressed table for the sparse block
// space and direct-indexed arrays (clock value, 0 = never seen; the clock
// is pre-incremented so 0 is unambiguous) for the dense set spaces.
type collectionTables struct {
	lastBlock   *ReuseTable
	lastSet     []uint64 // indexed by set
	lastReduced []uint64 // indexed by reduced set
	stack       []uint64 // LRU stack of block addresses, most recent first
}

// HistBins is the number of log2 bins in each profiler histogram.
const HistBins = 22

// NewProfiler builds a profiler for a cache with the given geometry.
// reducedSets is the set count of the smallest configurable cache of that
// kind; sampledSets (power of two, <= sets) selects how many sets are
// monitored — pass sets to monitor all.
func NewProfiler(sizeKB, lineBytes, reducedSizeKB, sampledSets int) (*Profiler, error) {
	if lineBytes <= 0 || lineBytes&(lineBytes-1) != 0 {
		return nil, fmt.Errorf("cache: bad line size %d", lineBytes)
	}
	sets := sizeKB * 1024 / lineBytes / 2 // 2-way geometry for set mapping
	redSets := reducedSizeKB * 1024 / lineBytes / 2
	if sets <= 0 || redSets <= 0 {
		return nil, fmt.Errorf("cache: bad profiler sizes %dKB/%dKB", sizeKB, reducedSizeKB)
	}
	if sampledSets <= 0 || sampledSets > sets {
		return nil, fmt.Errorf("cache: sampledSets %d out of range (1..%d)", sampledSets, sets)
	}
	p := &Profiler{
		sets:         uint32(sets),
		reducedSets:  uint32(redSets),
		StackDist:    stats.NewHistogram(HistBins),
		BlockReuse:   stats.NewHistogram(HistBins),
		SetReuse:     stats.NewHistogram(HistBins),
		ReducedSets:  stats.NewHistogram(HistBins),
		sampleEvery:  uint32(sets / sampledSets),
		maxStackSize: 8192,
	}
	if t, ok := profTables.Get([2]int{sets, redSets}); ok {
		t.lastBlock.reset()
		clear(t.lastSet)
		clear(t.lastReduced)
		t.stack = t.stack[:0]
		p.collectionTables = *t
	} else {
		p.lastBlock = NewReuseTable(1024)
		p.lastSet = make([]uint64, sets)
		p.lastReduced = make([]uint64, redSets)
	}
	for ls := lineBytes; ls > 1; ls >>= 1 {
		p.lineShift++
	}
	return p, nil
}

// profTables holds released collection tables by set and reduced-set
// count: Release fills it and NewProfiler drains it, resetting what it
// takes to the state of a fresh allocation.
var profTables keyedpool.Pool[[2]int, *collectionTables]

// Release hands the profiler's collection tables to a later NewProfiler
// with the same geometry. The histograms stay with the profiler, so a
// profile Finish returned stays valid; p must not Observe afterwards.
func (p *Profiler) Release() {
	if p.lastSet == nil {
		return
	}
	t := p.collectionTables
	profTables.Put([2]int{len(t.lastSet), len(t.lastReduced)}, &t)
	p.collectionTables = collectionTables{}
}

// Observe records one access to addr.
func (p *Profiler) Observe(addr uint32) {
	p.clock++
	block := uint64(addr) >> p.lineShift
	set := uint32(block) % p.sets
	red := uint32(block) % p.reducedSets

	sampled := set%p.sampleEvery == 0

	// Stack distance over all blocks (the stack itself is what a real
	// implementation would approximate; we sample by set like the rest).
	if sampled {
		depth := -1
		for i, b := range p.stack {
			if b == block {
				depth = i
				break
			}
		}
		if depth >= 0 {
			// The stack holds only sampled blocks, compressing depths by
			// the sampling factor; rescale to estimate the true distance.
			est := (uint64(depth) + 1) * uint64(p.sampleEvery)
			p.StackDist.Add(stats.Log2Bin(est, HistBins-1))
			copy(p.stack[1:depth+1], p.stack[:depth])
			p.stack[0] = block
		} else {
			p.StackDist.Add(HistBins - 1) // cold/overflow bin
			if len(p.stack) < p.maxStackSize {
				p.stack = append(p.stack, 0)
			}
			copy(p.stack[1:], p.stack)
			p.stack[0] = block
		}

		if last, ok := p.lastBlock.Swap(block, p.clock); ok {
			p.BlockReuse.Add(stats.Log2Bin(p.clock-last, HistBins-1))
		} else {
			p.BlockReuse.Add(HistBins - 1)
		}

		if last := p.lastSet[set]; last != 0 {
			p.SetReuse.Add(stats.Log2Bin(p.clock-last, HistBins-1))
		} else {
			p.SetReuse.Add(HistBins - 1)
		}
		p.lastSet[set] = p.clock
	}

	// Reduced-set histogram samples on the reduced mapping so every
	// reduced set observed maps deterministically.
	if red%p.sampleEvery == 0 || p.sampleEvery >= p.reducedSets {
		if last := p.lastReduced[red]; last != 0 {
			p.ReducedSets.Add(stats.Log2Bin(p.clock-last, HistBins-1))
		} else {
			p.ReducedSets.Add(HistBins - 1)
		}
		p.lastReduced[red] = p.clock
	}
}

// Observations returns how many accesses have been recorded.
func (p *Profiler) Observations() uint64 { return p.clock }

// Finish returns the profile alone: the four histograms and the
// observation count, without the last-touch tables and LRU stack that only
// collection reads. The histograms are shared, not copied. A finished
// profile is read-only: Observe must not be called on it.
func (p *Profiler) Finish() *Profiler {
	return FinishedProfile(p.clock, p.StackDist, p.BlockReuse, p.SetReuse, p.ReducedSets)
}

// FinishedProfile assembles a finished profile from its parts, exactly as
// Finish returns it; the result store rebuilds stored profiles with it.
func FinishedProfile(observations uint64, stackDist, blockReuse, setReuse, reducedSets *stats.Histogram) *Profiler {
	return &Profiler{
		clock:       observations,
		StackDist:   stackDist,
		BlockReuse:  blockReuse,
		SetReuse:    setReuse,
		ReducedSets: reducedSets,
	}
}

// FillFrom re-inserts the resident blocks of old into c, emulating a
// bitline-segmentation resize: lines whose (new) set still exists survive
// the reconfiguration, the rest fall out via replacement. Tags store full
// block addresses, so migration is exact. Statistics are not transferred.
func (c *Cache) FillFrom(old *Cache) {
	for _, l := range old.lines {
		if l < old.genTag {
			continue
		}
		c.Access(uint32(l>>blockShift) << old.lineShift)
	}
	c.ResetStats()
}
