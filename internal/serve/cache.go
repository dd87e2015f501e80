package serve

import (
	"container/list"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/arch"
)

// decisionCache is a bounded LRU cache of predict decisions keyed by the
// quantized feature vector. Two feature vectors that agree to the key
// resolution share a decision — phases repeat, so a hot serving path sees
// the same (or nearly the same) counters over and over and should not pay
// the 14-model argmax each time.
type decisionCache struct {
	mu    sync.Mutex
	max   int
	order *list.List // front = most recently used
	items map[string]*list.Element
}

// cacheEntry is one cached decision. It remembers the engine that made it
// so a decision computed just before a hot-swap can never be served after
// it: get compares the entry's engine against the current one.
type cacheEntry struct {
	key    string
	eng    *Engine
	config arch.Config
	probs  [arch.NumParams][]float64
	// rendered memoises the hit response body (cached:true, which every
	// lookup after the first produces) per variant: [0] default, [1]
	// ?probs=1. A decision never changes once cached, so neither do its
	// bytes; concurrent first renders race benignly to store identical
	// slices. Keeps the JSON encoder off the hot hit path.
	rendered [2]atomic.Pointer[[]byte]
}

// newDecisionCache returns a cache holding up to max entries; max <= 0
// disables caching (lookups miss, stores drop).
func newDecisionCache(max int) *decisionCache {
	return &decisionCache{max: max, order: list.New(), items: map[string]*list.Element{}}
}

// keyQuantBits is the fixed-point resolution of the cache key: features
// (normalised into roughly [0,1]) are rounded to 1/2^keyQuantBits. Coarse
// enough to absorb measurement jitter, fine enough that genuinely
// different phases do not collide.
const keyQuantBits = 12

// cacheKey quantizes a feature vector into a compact string key: each
// feature becomes a little-endian int16 of its fixed-point value.
func cacheKey(features []float64) string {
	b := make([]byte, 0, 2*len(features))
	for _, v := range features {
		q := math.Round(v * (1 << keyQuantBits))
		if q > math.MaxInt16 {
			q = math.MaxInt16
		}
		if q < math.MinInt16 {
			q = math.MinInt16
		}
		u := uint16(int16(q))
		b = append(b, byte(u), byte(u>>8))
	}
	return string(b)
}

// get returns the cached decision for key, if any, marking it recently
// used.
func (c *decisionCache) get(key string) (*cacheEntry, bool) {
	if c.max <= 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry), true
}

// put stores a decision, evicting the least recently used entry when full.
func (c *decisionCache) put(e *cacheEntry) {
	if c.max <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[e.key]; ok {
		el.Value = e
		c.order.MoveToFront(el)
		return
	}
	c.items[e.key] = c.order.PushFront(e)
	for c.order.Len() > c.max {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.items, last.Value.(*cacheEntry).key)
	}
}

// purge drops every entry (called on model hot-swap: a new model's
// decisions may differ for the same features).
func (c *decisionCache) purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.order.Init()
	clear(c.items)
}

// len returns the current entry count.
func (c *decisionCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
