package keyedpool

import "testing"

func TestGetReturnsOnlySameKey(t *testing.T) {
	var p Pool[int, *[]int]
	if _, ok := p.Get(4); ok {
		t.Fatal("empty pool returned a value")
	}
	s := make([]int, 4)
	p.Put(4, &s)
	if _, ok := p.Get(8); ok {
		t.Fatal("Get(8) returned a value Put under 4")
	}
	// sync.Pool may drop a value (it never does without a GC in between,
	// but the contract allows it), so only a returned value is checked.
	if v, ok := p.Get(4); ok && v != &s {
		t.Fatalf("Get(4) = %p, want %p", v, &s)
	}
}
