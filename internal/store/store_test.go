package store

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/cache"
	"repro/internal/counters"
	"repro/internal/cpu"
	"repro/internal/power"
	"repro/internal/stats"
	"repro/internal/trace"
)

// fakeResult builds a fully populated measurement-mode result whose every
// field depends on i, so round-trip equality is a meaningful check.
func fakeResult(i int) *cpu.Result {
	r := &cpu.Result{
		Config:        arch.Baseline().With(arch.IQSize, arch.Domain(arch.IQSize)[i%arch.DomainSize(arch.IQSize)]),
		Cycles:        uint64(1000 + i),
		Committed:     uint64(900 + i),
		Fetched:       uint64(1100 + i),
		WrongPath:     uint64(50 + i),
		BranchLookups: uint64(200 + i),
		Mispredicts:   uint64(10 + i),
		BTBMisses:     uint64(5 + i),
		L1IAccesses:   uint64(1100 + i),
		L1IMisses:     uint64(7 + i),
		L1DAccesses:   uint64(400 + i),
		L1DMisses:     uint64(30 + i),
		L2Accesses:    uint64(37 + i),
		L2Misses:      uint64(3 + i),
		IPC:           0.9 + float64(i)/1000,
		SecondsSim:    1e-6 * float64(i+1),
		IPS:           1e9 / float64(i+1),
		Watts:         10.5 + float64(i),
		EnergyJ:       1e-5 * float64(i+1),
		Efficiency:    1e27 / float64(i+1),
	}
	r.Energy = power.Summary{
		Cycles:    r.Cycles,
		DynamicJ:  1e-6 * float64(i+1),
		LeakageJ:  2e-6 * float64(i+1),
		TotalJ:    3e-6 * float64(i+1),
		AvgPowerW: r.Watts,
	}
	for st := power.Structure(0); st < power.NumStructures; st++ {
		r.Energy.PerStructureJ[st] = float64(i)*1e-9 + float64(st)*1e-12
	}
	return r
}

// fakeProfile is fakeResult(i) carrying profiling counters whose every
// histogram bin, observation count and scalar depends on i.
func fakeProfile(i int) *cpu.Result {
	r := fakeResult(i)
	v := uint64(i)
	hist := func(bins int) *stats.Histogram {
		h := stats.NewHistogram(bins)
		for b := 0; b < bins; b++ {
			v++
			h.AddN(b, v*v%101)
		}
		return h
	}
	prof := func() *cache.Profiler {
		v++
		return cache.FinishedProfile(1000+v, hist(cache.HistBins), hist(cache.HistBins),
			hist(cache.HistBins), hist(cache.HistBins))
	}
	frac := func() float64 { v++; return float64(v%13) / 13 }
	r.Counters = &cpu.RawCounters{
		ALUUsage:       hist(cpu.ALUBins),
		MemPortUsage:   hist(cpu.MemPortBins),
		ROBOcc:         hist(cpu.OccBins),
		IQOcc:          hist(cpu.OccBins),
		LSQOcc:         hist(cpu.OccBins),
		IQSpecFrac:     frac(),
		IQMisspecFrac:  frac(),
		LSQSpecFrac:    frac(),
		LSQMisspecFrac: frac(),
		IntRegUsage:    hist(cpu.OccBins),
		FpRegUsage:     hist(cpu.OccBins),
		RdPortUsage:    hist(cpu.RdPortBins),
		WrPortUsage:    hist(cpu.WrPortBins),
		ICache:         prof(),
		DCache:         prof(),
		L2:             prof(),
		BTBReuse:       hist(cpu.BTBReuseBins),
		MispredictRate: frac(),
		CPI:            1 + frac(),
	}
	return r
}

// fakeProfileKey is the profiling-run key matching fakeKey(i).
func fakeProfileKey(i int) Key {
	return ProfileFingerprint(fmt.Sprintf("prog%d", i%3), i, arch.Profiling(), 2500, 1200, 16)
}

func fakeKey(i int) Key {
	return Fingerprint(fmt.Sprintf("prog%d", i%3), i, arch.Baseline(), 2500, 1200)
}

func TestRoundTripAndReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	for i := 0; i < n; i++ {
		if err := s.Put(fakeKey(i), fakeResult(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		got, ok := s.Get(fakeKey(i))
		if !ok {
			t.Fatalf("Get(%d) missed before reopen", i)
		}
		if !reflect.DeepEqual(got, fakeResult(i)) {
			t.Fatalf("Get(%d) = %+v, want %+v", i, got, fakeResult(i))
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != n {
		t.Fatalf("reopened store has %d records, want %d", s2.Len(), n)
	}
	if st := s2.Stats(); st.Dropped != 0 || st.Compactions != 0 {
		t.Errorf("clean reopen dropped %d records, compacted %d times", st.Dropped, st.Compactions)
	}
	for i := 0; i < n; i++ {
		got, ok := s2.Get(fakeKey(i))
		if !ok {
			t.Fatalf("Get(%d) missed after reopen", i)
		}
		if !reflect.DeepEqual(got, fakeResult(i)) {
			t.Fatalf("Get(%d) after reopen = %+v, want %+v", i, got, fakeResult(i))
		}
	}
	if _, ok := s2.Get(fakeKey(n + 1)); ok {
		t.Error("Get of an unwritten key hit")
	}
}

func TestFingerprintDistinguishesInputs(t *testing.T) {
	base := fingerprint(1, "mcf", 0, arch.Baseline(), 2500, 1200)
	variants := map[string]Key{
		"version":  fingerprint(2, "mcf", 0, arch.Baseline(), 2500, 1200),
		"program":  fingerprint(1, "gcc", 0, arch.Baseline(), 2500, 1200),
		"phase":    fingerprint(1, "mcf", 1, arch.Baseline(), 2500, 1200),
		"config":   fingerprint(1, "mcf", 0, arch.Baseline().With(arch.Width, 8), 2500, 1200),
		"interval": fingerprint(1, "mcf", 0, arch.Baseline(), 5000, 1200),
		"warmup":   fingerprint(1, "mcf", 0, arch.Baseline(), 2500, 0),
	}
	for name, k := range variants {
		if k == base {
			t.Errorf("changing %s did not change the fingerprint", name)
		}
	}
	if again := fingerprint(1, "mcf", 0, arch.Baseline(), 2500, 1200); again != base {
		t.Error("identical inputs fingerprinted differently")
	}

	// Profiling runs have keys of their own: for the same inputs a
	// profile key never collides with the measurement key, and the
	// set-sampling level is part of it.
	prof := profileFingerprint(1, "mcf", 0, arch.Baseline(), 2500, 1200, 0)
	if prof == base {
		t.Error("a profiling run and a measurement run of the same inputs share a key")
	}
	if profileFingerprint(1, "mcf", 0, arch.Baseline(), 2500, 1200, 16) == prof {
		t.Error("changing sampledSets did not change the profile fingerprint")
	}
}

// TestMeasurementKeysPinned pins the bytes of a measurement key, so a
// change to the key derivation cannot silently turn every existing store
// cold.
func TestMeasurementKeysPinned(t *testing.T) {
	const want = "5f4a6d75ca0083ffe121ff617c340abff3b7178d8ffc9fcc90659d7142fd5dff"
	k := fingerprint(1, "mcf", 0, arch.Baseline(), 2500, 1200)
	if got := hex.EncodeToString(k[:]); got != want {
		t.Errorf("measurement key is %s, want %s", got, want)
	}
}

// profileRun simulates one profiling run of mcf phase 0 on the profiling
// configuration, the way a dataset build does.
func profileRun(t testing.TB, sampledSets int) *cpu.Result {
	t.Helper()
	g, err := trace.NewGenerator("mcf", 0)
	if err != nil {
		t.Fatal(err)
	}
	insts := g.Interval(2500)
	sim, err := cpu.New(arch.Profiling())
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Release()
	res, err := sim.Run(cpu.NewSliceSource(insts), len(insts),
		cpu.Options{Collect: true, SampledSets: sampledSets, WarmupInsts: 1200})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestProfileRoundTrip round-trips real profiling results, with all sets
// and with sampled sets monitored, through the codec and through a store
// log across a reopen: the decoded result is deeply equal to the fresh
// one, and both feature sets derived from it are bit-equal.
func TestProfileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := map[Key]*cpu.Result{}
	for _, sets := range []int{0, 16} {
		res := profileRun(t, sets)
		got, err := decodeResult(encodeResult(res))
		if err != nil {
			t.Fatalf("sampledSets=%d: %v", sets, err)
		}
		if !reflect.DeepEqual(got, res) {
			t.Errorf("sampledSets=%d: decoded profile differs from the fresh one", sets)
		}
		for _, set := range []counters.Set{counters.Basic, counters.Advanced} {
			a, b := counters.Features(res, set), counters.Features(got, set)
			if len(a) != len(b) {
				t.Fatalf("sampledSets=%d: %d features decoded, %d fresh", sets, len(b), len(a))
			}
			for i := range a {
				if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
					t.Errorf("sampledSets=%d: feature %d is %v decoded, %v fresh", sets, i, b[i], a[i])
				}
			}
		}
		key := ProfileFingerprint("mcf", 0, arch.Profiling(), 2500, 1200, sets)
		if err := s.Put(key, res); err != nil {
			t.Fatal(err)
		}
		want[key] = res
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for key, res := range want {
		got, ok := s2.Get(key)
		if !ok || !reflect.DeepEqual(got, res) {
			t.Errorf("stored profile did not round-trip (ok=%v)", ok)
		}
	}
}

// TestDecodeAllocations holds decodeResult to a constant number of
// allocations: a measurement record decodes into one Result, a profile
// record into one slab of headers and one bin array shared by its 22
// histograms, each capped at its own bins.
func TestDecodeAllocations(t *testing.T) {
	for _, c := range []struct {
		name string
		res  *cpu.Result
		want float64
	}{
		{"measurement", fakeResult(3), 1},
		{"profile", fakeProfile(3), 2},
	} {
		value := encodeResult(c.res)
		var got *cpu.Result
		allocs := testing.AllocsPerRun(20, func() {
			var err error
			if got, err = decodeResult(value); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != c.want {
			t.Errorf("%s: decodeResult made %v allocations, want %v", c.name, allocs, c.want)
		}
		if !reflect.DeepEqual(got, c.res) {
			t.Errorf("%s: decoded result differs from the encoded one", c.name)
		}
	}
	got, err := decodeResult(encodeResult(fakeProfile(3)))
	if err != nil {
		t.Fatal(err)
	}
	c := got.Counters
	hs := []*stats.Histogram{c.ALUUsage, c.MemPortUsage, c.ROBOcc, c.IQOcc, c.LSQOcc,
		c.IntRegUsage, c.FpRegUsage, c.RdPortUsage, c.WrPortUsage, c.BTBReuse}
	for _, p := range []*cache.Profiler{c.ICache, c.DCache, c.L2} {
		hs = append(hs, p.StackDist, p.BlockReuse, p.SetReuse, p.ReducedSets)
	}
	if len(hs) != histFields {
		t.Fatalf("checked %d histograms, the layout has %d", len(hs), histFields)
	}
	for i, h := range hs {
		if cap(h.Counts) != len(h.Counts) {
			t.Errorf("histogram %d: cap %d, len %d: an append would overwrite its neighbour", i, cap(h.Counts), len(h.Counts))
		}
	}
}

// recordOffsets parses the log's framing and returns each record's
// (header offset, payload length) in file order.
func recordOffsets(t *testing.T, path string) [][2]int64 {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var recs [][2]int64
	off := int64(headerSize)
	for off+recHeaderSize <= int64(len(data)) {
		plen := int64(binary.LittleEndian.Uint32(data[off:]))
		recs = append(recs, [2]int64{off, plen})
		off += recHeaderSize + plen
	}
	return recs
}

// TestCorruptionRecovery is the crash-safety contract: a truncated final
// record and a bit-flipped payload byte must both be detected on open,
// dropped (not fatal), and must not stop subsequent writes from
// round-tripping.
func TestCorruptionRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Put(fakeKey(i), fakeResult(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, dataFileName)
	recs := recordOffsets(t, path)
	if len(recs) != 3 {
		t.Fatalf("log has %d records, want 3", len(recs))
	}

	// Flip one byte in the middle of record 1's payload.
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	flipAt := recs[1][0] + recHeaderSize + keySize + 4
	var b [1]byte
	if _, err := f.ReadAt(b[:], flipAt); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b[:], flipAt); err != nil {
		t.Fatal(err)
	}
	// Truncate the final record mid-payload (a torn append).
	if err := f.Truncate(recs[2][0] + recHeaderSize + 10); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("open after corruption: %v", err)
	}
	defer s2.Close()
	st := s2.Stats()
	if st.Dropped != 2 {
		t.Errorf("dropped %d records, want 2 (one flipped, one torn)", st.Dropped)
	}
	if st.Compactions != 1 {
		t.Errorf("dirty open ran %d compactions, want 1", st.Compactions)
	}
	if got, ok := s2.Get(fakeKey(0)); !ok || !reflect.DeepEqual(got, fakeResult(0)) {
		t.Errorf("surviving record 0 unreadable (ok=%v)", ok)
	}
	for _, i := range []int{1, 2} {
		if _, ok := s2.Get(fakeKey(i)); ok {
			t.Errorf("corrupt record %d still served", i)
		}
	}

	// Subsequent writes must round-trip, survive a reopen, and the
	// compacted log must scan clean.
	for _, i := range []int{1, 2, 3} {
		if err := s2.Put(fakeKey(i), fakeResult(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if st := s3.Stats(); st.Dropped != 0 {
		t.Errorf("post-recovery log still dirty: %d dropped", st.Dropped)
	}
	for i := 0; i < 4; i++ {
		got, ok := s3.Get(fakeKey(i))
		if !ok || !reflect.DeepEqual(got, fakeResult(i)) {
			t.Errorf("record %d did not round-trip after recovery (ok=%v)", i, ok)
		}
	}
}

func TestCompactRemovesSuperseded(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	key := fakeKey(0)
	for i := 0; i < 5; i++ {
		if err := s.Put(key, fakeResult(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Put(fakeKey(1), fakeResult(10)); err != nil {
		t.Fatal(err)
	}
	before, err := os.Stat(filepath.Join(dir, dataFileName))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(filepath.Join(dir, dataFileName))
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() >= before.Size() {
		t.Errorf("compaction did not shrink the log: %d -> %d bytes", before.Size(), after.Size())
	}
	if got, ok := s.Get(key); !ok || !reflect.DeepEqual(got, fakeResult(4)) {
		t.Errorf("latest write lost by compaction (ok=%v)", ok)
	}
	if got, ok := s.Get(fakeKey(1)); !ok || !reflect.DeepEqual(got, fakeResult(10)) {
		t.Errorf("unrelated record lost by compaction (ok=%v)", ok)
	}
	// And the rewritten log must reopen clean with both records.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 2 {
		t.Errorf("compacted log reopened with %d records, want 2", s2.Len())
	}
}

func TestLockExcludesSecondOpen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); !errors.Is(err, ErrLocked) {
		t.Errorf("second Open error = %v, want ErrLocked", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("Open after Close: %v", err)
	}
	s2.Close()
}

func TestOpenRejectsForeignFile(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, dataFileName), []byte("not a store, definitely"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Error("Open accepted a non-store file")
	}
}

// histTagOffsets returns the offsets of the 22 histogram bin-count tags
// in an encoded profile value, walking the counters layout.
func histTagOffsets(t *testing.T, value []byte) []int {
	t.Helper()
	var offs []int
	off := encodedSize()
	hist := func(n int) {
		for ; n > 0; n-- {
			offs = append(offs, off)
			off += 2 + 8*int(binary.LittleEndian.Uint16(value[off:]))
		}
	}
	hist(5)   // width and queue occupancy
	off += 32 // speculation fractions
	hist(4)   // register file
	for p := 0; p < profilerCount; p++ {
		off += 8 // observations
		hist(4)
	}
	hist(1)   // BTB reuse
	off += 16 // MispredictRate, CPI
	if len(offs) != histFields || off != len(value) {
		t.Fatalf("walked %d histograms to offset %d, want %d and %d", len(offs), off, histFields, len(value))
	}
	return offs
}

// TestDecodeRejectsWrongLength feeds decodeResult damaged measurement and
// profile values. Each must fail to decode, and a CRC-valid record
// holding one must be a miss for Get that evicts it.
func TestDecodeRejectsWrongLength(t *testing.T) {
	enc := encodeResult(fakeResult(1))
	prof := encodeResult(fakeProfile(1))
	for name, v := range map[string][]byte{"measurement": enc, "profile": prof} {
		if _, err := decodeResult(v); err != nil {
			t.Errorf("decode rejected a valid %s value: %v", name, err)
		}
	}
	clone := func(b []byte) []byte { return append([]byte(nil), b...) }
	bad := map[string][]byte{
		"short value":               clone(enc[:len(enc)-1]),
		"long value":                append(clone(enc), 0),
		"counters section of 1 B":   clone(prof[:encodedSize()+1]),
		"half a counters section":   clone(prof[:encodedSize()+countersSize()/2]),
		"counters section short 1B": clone(prof[:len(prof)-1]),
		"profile with trailing 1B":  append(clone(prof), 0),
	}
	for i, off := range histTagOffsets(t, prof) {
		v := clone(prof)
		binary.LittleEndian.PutUint16(v[off:], binary.LittleEndian.Uint16(v[off:])+1)
		bad[fmt.Sprintf("histogram %d bin count", i)] = v
	}

	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	i := 0
	for name, v := range bad {
		if _, err := decodeResult(v); err == nil {
			t.Errorf("%s: decode accepted the value", name)
		}
		key := fakeKey(i)
		i++
		if err := s.putValue(key, v); err != nil {
			t.Fatal(err)
		}
		before := s.Stats()
		if _, ok := s.Get(key); ok {
			t.Errorf("%s: Get served the record", name)
		}
		after := s.Stats()
		if after.Misses != before.Misses+1 || after.Dropped != before.Dropped+1 || after.Records != before.Records-1 {
			t.Errorf("%s: Get counted %d misses, dropped %d and left %d records; want 1, 1 and %d",
				name, after.Misses-before.Misses, after.Dropped-before.Dropped, after.Records, before.Records-1)
		}
	}
}

// TestConcurrentAccess exercises the mutex paths under -race.
func TestConcurrentAccess(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := fakeKey(w*50 + i)
				if err := s.Put(k, fakeResult(w*50+i)); err != nil {
					t.Error(err)
					return
				}
				if _, ok := s.Get(k); !ok {
					t.Errorf("worker %d: own write %d missed", w, i)
					return
				}
				s.Get(fakeKey((w*50 + i + 1) % 200))
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != 200 {
		t.Errorf("store has %d records, want 200", s.Len())
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentReadContract holds concurrent Gets to the per-read
// contract: 8 readers each Get every key of a replay-sized log while one
// writer appends, after one record's payload rotted on disk. Every hit is
// the stored result bit for bit, the rotted record is evicted exactly once
// and never served, Stats counts every Get, and the log audits clean
// after a reopen.
func TestConcurrentReadContract(t *testing.T) {
	dir, keys, want := replayLog(t)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const rotted = 300
	flip(t, HeadLog(dir), s.index[keys[rotted]].off+keySize+4)

	const readers, appends = 8, 100
	start := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			// Every reader opens on the rotted key, so several find it
			// before it is evicted; the rest are staggered.
			order := []int{rotted}
			for j := range keys {
				if i := (j + r*len(keys)/readers) % len(keys); i != rotted {
					order = append(order, i)
				}
			}
			<-start
			for _, i := range order {
				got, ok := s.Get(keys[i])
				switch {
				case i == rotted && ok:
					t.Errorf("reader %d: rotted record served", r)
				case i != rotted && !ok:
					t.Errorf("reader %d: key %d missed", r, i)
				case ok && !bytes.Equal(encodeResult(got), encodeResult(want[i])):
					t.Errorf("reader %d: key %d served a different result", r, i)
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < appends; i++ {
			if err := s.Put(fakeKey(10000+i), fakeResult(i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	close(start)
	wg.Wait()

	if _, ok := s.Get(keys[rotted]); ok {
		t.Error("rotted record served after the readers finished")
	}
	gets := uint64(readers*len(keys) + 1)
	st := s.Stats()
	if st.Hits+st.Misses != gets {
		t.Errorf("stats count %d hits + %d misses, want %d Gets", st.Hits, st.Misses, gets)
	}
	if st.Misses != readers+1 || st.Dropped != 1 {
		t.Errorf("rotted record: %d misses and %d drops, want %d misses and one eviction", st.Misses, st.Dropped, readers+1)
	}
	if st.Records != len(keys)-1+appends || s.Len() != st.Records {
		t.Errorf("store holds %d records (Len %d), want %d", st.Records, s.Len(), len(keys)-1+appends)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != len(keys)-1+appends {
		t.Errorf("reopened store holds %d records, want %d", s.Len(), len(keys)-1+appends)
	}
	if _, ok := s.Get(keys[rotted]); ok {
		t.Error("reopened store served the rotted record")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	c, err := CheckDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Ok() {
		t.Errorf("audit after reopen: %v", c.Faults)
	}
}

// flip inverts the byte at off in the file at path.
func flip(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}

// TestCloseSyncsOnlyChangedLogs checks when Close has a write to sync: a
// log this handle created, appended to, cut back from a torn tail or
// compacted, but not one it only read (a warm replay).
func TestCloseSyncsOnlyChangedLogs(t *testing.T) {
	dir := t.TempDir()
	open := func(want bool, what string) *Store {
		t.Helper()
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if s.changed != want {
			t.Fatalf("%s: changed = %v after Open, want %v", what, s.changed, want)
		}
		return s
	}
	closeStore := func(s *Store) {
		t.Helper()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}

	s := open(true, "new log (header write)")
	closeStore(s)

	s = open(false, "empty log reopened")
	if err := s.Put(fakeKey(1), fakeResult(1)); err != nil {
		t.Fatal(err)
	}
	if !s.changed {
		t.Fatal("changed = false after Put")
	}
	closeStore(s)

	s = open(false, "warm reopen")
	if _, ok := s.Get(fakeKey(1)); !ok {
		t.Fatal("Get missed")
	}
	s.Get(fakeKey(2))
	if s.changed {
		t.Fatal("changed = true after Gets alone")
	}
	closeStore(s)

	// A torn tail is cut back on Open.
	f, err := os.OpenFile(HeadLog(dir), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	s = open(true, "torn tail")
	closeStore(s)

	// A shadowed record makes the next Open compact.
	s = open(false, "clean reopen")
	if err := s.Put(fakeKey(1), fakeResult(3)); err != nil {
		t.Fatal(err)
	}
	closeStore(s)
	s = open(true, "compacting reopen")
	if s.Stats().Compactions != 1 {
		t.Fatalf("compactions = %d, want 1", s.Stats().Compactions)
	}
	closeStore(s)
}
