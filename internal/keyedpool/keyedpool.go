// Package keyedpool recycles storage that only a requester of the same
// shape can reuse — a cache's line array by line count, a branch
// predictor's tables by geometry — through one sync.Pool per key.
package keyedpool

import "sync"

// Pool holds values of type V under keys of type K. The zero Pool is
// ready to use and safe for concurrent use. V is normally a pointer, so
// Put does not allocate.
type Pool[K comparable, V any] struct {
	pools sync.Map // K -> *sync.Pool
}

// Get removes and returns a value Put under key, if the pool still holds
// one; like sync.Pool, it may drop values at any time.
func (p *Pool[K, V]) Get(key K) (V, bool) {
	if sp, ok := p.pools.Load(key); ok {
		if v, ok := sp.(*sync.Pool).Get().(V); ok {
			return v, true
		}
	}
	var zero V
	return zero, false
}

// Put hands v to a later Get with the same key.
func (p *Pool[K, V]) Put(key K, v V) {
	sp, ok := p.pools.Load(key)
	if !ok {
		sp, _ = p.pools.LoadOrStore(key, new(sync.Pool))
	}
	sp.(*sync.Pool).Put(v)
}
