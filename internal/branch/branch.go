// Package branch implements the configurable front-end branch prediction
// hardware of the simulated processor: a gshare direction predictor with
// 2-bit saturating counters and a set-associative branch target buffer.
// Both structures' sizes are design-space parameters (Table I).
package branch

import (
	"fmt"

	"repro/internal/keyedpool"
)

// Predictor is the combined gshare + BTB unit. It is deterministic and not
// safe for concurrent use.
type Predictor struct {
	pht     []uint8 // 2-bit saturating counters
	phtMask uint32
	ghr     uint32 // global history register

	btbTags    []uint32
	btbTargets []uint32
	btbSets    uint32
	btbWays    uint32
	btbLRU     []uint8

	// Statistics.
	Lookups     uint64
	Mispredicts uint64
	BTBMisses   uint64
}

const btbAssoc = 4

// New builds a predictor with the given gshare PHT entry count and BTB
// entry count. Both must be powers of two (all Table I values are). Its
// tables come from a predictor of the same geometry that Release handed
// back, when there is one, and are reset to a fresh predictor's state.
func New(gshareEntries, btbEntries int) (*Predictor, error) {
	if gshareEntries <= 0 || gshareEntries&(gshareEntries-1) != 0 {
		return nil, fmt.Errorf("branch: gshare size %d not a positive power of two", gshareEntries)
	}
	if btbEntries < btbAssoc || btbEntries&(btbEntries-1) != 0 {
		return nil, fmt.Errorf("branch: BTB size %d not a positive power of two >= %d", btbEntries, btbAssoc)
	}
	p := &Predictor{
		phtMask: uint32(gshareEntries - 1),
		btbSets: uint32(btbEntries / btbAssoc),
		btbWays: btbAssoc,
	}
	if t, ok := tablePool.Get([2]int{gshareEntries, btbEntries}); ok {
		p.pht, p.btbTags, p.btbTargets, p.btbLRU = t.pht, t.btbTags, t.btbTargets, t.btbLRU
		clear(p.btbTargets)
		clear(p.btbLRU)
	} else {
		p.pht = make([]uint8, gshareEntries)
		p.btbTags = make([]uint32, btbEntries)
		p.btbTargets = make([]uint32, btbEntries)
		p.btbLRU = make([]uint8, btbEntries)
	}
	fill(p.pht, 2) // weakly taken: loop-closing branches dominate
	fill(p.btbTags, 0xffffffff)
	return p, nil
}

// fill sets every element of s to v, doubling the filled prefix with copy.
func fill[T any](s []T, v T) {
	if len(s) == 0 {
		return
	}
	s[0] = v
	for n := 1; n < len(s); n *= 2 {
		copy(s[n:], s[:n])
	}
}

// tables is a predictor's storage, recycled through tablePool.
type tables struct {
	pht        []uint8
	btbTags    []uint32
	btbTargets []uint32
	btbLRU     []uint8
}

// tablePool holds released tables by (gshare, BTB) geometry: Release
// fills it and New drains it.
var tablePool keyedpool.Pool[[2]int, *tables]

// Release hands the predictor's tables to a later New with the same
// geometry. p must not be used afterwards.
func (p *Predictor) Release() {
	if p.pht == nil {
		return
	}
	tablePool.Put([2]int{len(p.pht), len(p.btbTags)}, &tables{p.pht, p.btbTags, p.btbTargets, p.btbLRU})
	p.pht, p.btbTags, p.btbTargets, p.btbLRU = nil, nil, nil, nil
}

// MustNew is New but panics on error; for configurations that come from the
// validated design space.
func MustNew(gshareEntries, btbEntries int) *Predictor {
	p, err := New(gshareEntries, btbEntries)
	if err != nil {
		panic(err)
	}
	return p
}

// phtIndex computes the gshare index: PC xor global history.
func (p *Predictor) phtIndex(pc uint32) uint32 {
	return ((pc >> 2) ^ p.ghr) & p.phtMask
}

// Predict returns the predicted direction and, when the BTB hits, the
// predicted target. A taken prediction with a BTB miss cannot redirect
// fetch and behaves as a (cheaper) misfetch; the caller decides the
// penalty. Predict does not modify predictor state; call Update with the
// outcome afterwards.
func (p *Predictor) Predict(pc uint32) (taken bool, target uint32, btbHit bool) {
	taken = p.pht[p.phtIndex(pc)] >= 2
	set := (pc >> 2) % p.btbSets
	tag := pc
	base := set * p.btbWays
	for w := uint32(0); w < p.btbWays; w++ {
		if p.btbTags[base+w] == tag {
			return taken, p.btbTargets[base+w], true
		}
	}
	return taken, 0, false
}

// Update trains the predictor with the actual outcome of the branch at pc
// and accumulates misprediction statistics against the prediction that
// Predict would have returned. It returns whether the overall prediction
// (direction, and target when taken) was correct.
func (p *Predictor) Update(pc uint32, taken bool, target uint32) bool {
	p.Lookups++
	idx := p.phtIndex(pc)
	predTaken := p.pht[idx] >= 2

	// BTB lookup/fill.
	set := (pc >> 2) % p.btbSets
	tag := pc
	base := set * p.btbWays
	hitWay := -1
	for w := uint32(0); w < p.btbWays; w++ {
		if p.btbTags[base+w] == tag {
			hitWay = int(w)
			break
		}
	}
	correct := predTaken == taken
	if taken {
		if hitWay < 0 {
			p.BTBMisses++
			correct = false
		} else if p.btbTargets[base+uint32(hitWay)] != target {
			correct = correct && false
		}
	}
	if !correct {
		p.Mispredicts++
	}

	// Train the 2-bit counter.
	if taken {
		if p.pht[idx] < 3 {
			p.pht[idx]++
		}
	} else if p.pht[idx] > 0 {
		p.pht[idx]--
	}
	// Update history.
	p.ghr = (p.ghr << 1) | b2u(taken)

	// Allocate/refresh the BTB entry for taken branches (LRU victim).
	if taken {
		if hitWay < 0 {
			victim := uint32(0)
			oldest := uint8(0)
			for w := uint32(0); w < p.btbWays; w++ {
				if p.btbLRU[base+w] >= oldest {
					oldest = p.btbLRU[base+w]
					victim = w
				}
			}
			hitWay = int(victim)
			p.btbTags[base+uint32(hitWay)] = tag
		}
		p.btbTargets[base+uint32(hitWay)] = target
		for w := uint32(0); w < p.btbWays; w++ {
			if p.btbLRU[base+w] < 255 {
				p.btbLRU[base+w]++
			}
		}
		p.btbLRU[base+uint32(hitWay)] = 0
	}
	return correct
}

// MispredictRate returns the fraction of updated branches that were
// mispredicted so far (0 if no branches seen).
func (p *Predictor) MispredictRate() float64 {
	if p.Lookups == 0 {
		return 0
	}
	return float64(p.Mispredicts) / float64(p.Lookups)
}

// ResetStats clears the statistics counters but keeps the learned state.
func (p *Predictor) ResetStats() {
	p.Lookups, p.Mispredicts, p.BTBMisses = 0, 0, 0
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}
