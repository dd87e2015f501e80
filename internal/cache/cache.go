// Package cache implements the simulated memory hierarchy — set-associative
// L1 instruction, L1 data and unified L2 caches with true-LRU replacement —
// plus the cache profiling machinery of the paper: stack distance, block
// reuse distance, set reuse distance and reduced-set reuse distance
// histograms, optionally gathered over a dynamically sampled subset of sets
// (Table IV, Figure 9).
package cache

import (
	"fmt"
	"sync"

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
	ways      uint32
	lineShift uint32
	tags      []uint64 // sets*ways; tag==invalidTag means empty
	lru       []uint8  // age counters per line, 0 = most recent

	Accesses uint64
	Misses   uint64
}

const invalidTag = ^uint64(0)

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
		sets: uint32(sets),
		ways: uint32(ways),
	}
	for ls := lineBytes; ls > 1; ls >>= 1 {
		c.lineShift++
	}
	n := sets * ways
	if a, ok := arrayPool(n).Get().(*lineArrays); ok {
		c.tags, c.lru = a.tags, a.lru
		clear(c.lru)
	} else {
		c.tags, c.lru = make([]uint64, n), make([]uint8, n)
	}
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
	return c, nil
}

// lineArrays is a cache's per-line storage, recycled through arrayPool.
type lineArrays struct {
	tags []uint64
	lru  []uint8
}

// arrayPools maps a line count to the *sync.Pool of *lineArrays that
// Release fills and NewCache drains.
var arrayPools sync.Map

func arrayPool(lines int) *sync.Pool {
	if p, ok := arrayPools.Load(lines); ok {
		return p.(*sync.Pool)
	}
	p, _ := arrayPools.LoadOrStore(lines, new(sync.Pool))
	return p.(*sync.Pool)
}

// Release hands the cache's line arrays to a later NewCache with the same
// line count, which resets them exactly as a fresh allocation would start.
// c must not be used afterwards.
func (c *Cache) Release() {
	if c.tags == nil {
		return
	}
	arrayPool(len(c.tags)).Put(&lineArrays{c.tags, c.lru})
	c.tags, c.lru = nil, nil
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
	return (addr >> c.lineShift) % c.sets
}

// BlockOf returns the block (line) address of addr.
func (c *Cache) BlockOf(addr uint32) uint64 {
	return uint64(addr) >> c.lineShift
}

// Access looks up addr, fills on miss, and reports whether the line was
// present before the access (a hit).
func (c *Cache) Access(addr uint32) bool {
	c.Accesses++
	set := c.SetOf(addr)
	tag := c.BlockOf(addr)
	base := set * c.ways
	hitWay := int32(-1)
	for w := uint32(0); w < c.ways; w++ {
		if c.tags[base+w] == tag {
			hitWay = int32(w)
			break
		}
	}
	hit := hitWay >= 0
	if !hit {
		c.Misses++
		// Victim: an empty way if any, else the way with the highest age.
		victim, oldest := uint32(0), uint8(0)
		for w := uint32(0); w < c.ways; w++ {
			if c.tags[base+w] == invalidTag {
				victim = w
				break
			}
			if c.lru[base+w] >= oldest {
				oldest, victim = c.lru[base+w], w
			}
		}
		c.tags[base+victim] = tag
		hitWay = int32(victim)
	}
	for w := uint32(0); w < c.ways; w++ {
		if c.lru[base+w] < 255 {
			c.lru[base+w]++
		}
	}
	c.lru[base+uint32(hitWay)] = 0
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
func (c *Cache) Flush() {
	for i := range c.tags {
		c.tags[i] = invalidTag
		c.lru[i] = 0
	}
}

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
	// Last-touch tables: an open-addressed table for the sparse block
	// space, direct-indexed arrays (clock value, 0 = never seen; the
	// clock is pre-incremented so 0 is unambiguous) for the dense set
	// spaces. All were Go maps before the hot-path overhaul.
	lastBlock    *ReuseTable
	lastSet      []uint64 // indexed by set
	lastReduced  []uint64 // indexed by reduced set
	stack        []uint64 // LRU stack of block addresses, most recent first
	maxStackSize int
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
		lastBlock:    NewReuseTable(1024),
		lastSet:      make([]uint64, sets),
		lastReduced:  make([]uint64, redSets),
		maxStackSize: 8192,
	}
	for ls := lineBytes; ls > 1; ls >>= 1 {
		p.lineShift++
	}
	return p, nil
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

// FillFrom re-inserts the resident blocks of old into c, emulating a
// bitline-segmentation resize: lines whose (new) set still exists survive
// the reconfiguration, the rest fall out via replacement. Tags store full
// block addresses, so migration is exact. Statistics are not transferred.
func (c *Cache) FillFrom(old *Cache) {
	for _, tag := range old.tags {
		if tag == invalidTag {
			continue
		}
		c.Access(uint32(tag << old.lineShift))
	}
	c.ResetStats()
}
