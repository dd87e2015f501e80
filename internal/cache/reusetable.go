package cache

// ReuseTable is an open-addressed hash table from uint64 keys to uint64
// clock values, replacing the map[uint64]uint64 last-touch tables on the
// profiling hot path. It only supports the one operation the profilers
// need — atomically fetch the previous clock for a key and store the new
// one — which keeps the probe sequence branch-light. Keys are stored
// biased by +1 so the zero word means "empty slot".
type ReuseTable struct {
	keys  []uint64 // key+1; 0 = empty
	vals  []uint64
	n     int
	shift uint // Fibonacci-hash shift: index = (key*phi) >> shift
}

// NewReuseTable returns a table pre-sized for about capacity entries.
func NewReuseTable(capacity int) *ReuseTable {
	size := 16
	for size < capacity*2 {
		size <<= 1
	}
	t := &ReuseTable{}
	t.init(size)
	return t
}

func (t *ReuseTable) init(size int) {
	t.keys = make([]uint64, size)
	t.vals = make([]uint64, size)
	t.n = 0
	t.shift = 64
	for s := size; s > 1; s >>= 1 {
		t.shift--
	}
}

// reset empties the table, keeping its size: lookups depend only on
// which keys are present, so a reset table behaves exactly like a fresh
// one.
func (t *ReuseTable) reset() {
	clear(t.keys)
	t.n = 0
}

// Swap stores clock for key and returns the previously stored clock, with
// ok reporting whether the key was present.
func (t *ReuseTable) Swap(key, clock uint64) (prev uint64, ok bool) {
	k := key + 1
	mask := uint64(len(t.keys) - 1)
	i := (k * 0x9E3779B97F4A7C15) >> t.shift
	for {
		stored := t.keys[i]
		if stored == k {
			prev = t.vals[i]
			t.vals[i] = clock
			return prev, true
		}
		if stored == 0 {
			t.keys[i] = k
			t.vals[i] = clock
			t.n++
			if t.n*4 > len(t.keys)*3 {
				t.grow()
			}
			return 0, false
		}
		i = (i + 1) & mask
	}
}

// grow doubles the table and reinserts every live entry.
func (t *ReuseTable) grow() {
	oldKeys, oldVals := t.keys, t.vals
	t.init(len(oldKeys) * 2)
	mask := uint64(len(t.keys) - 1)
	for j, k := range oldKeys {
		if k == 0 {
			continue
		}
		i := (k * 0x9E3779B97F4A7C15) >> t.shift
		for t.keys[i] != 0 {
			i = (i + 1) & mask
		}
		t.keys[i] = k
		t.vals[i] = oldVals[j]
		t.n++
	}
}
