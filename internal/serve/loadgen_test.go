package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/arch"
	"repro/internal/counters"
)

func TestSyntheticFeaturesDeterministic(t *testing.T) {
	a := SyntheticFeatures(16, 4, 7)
	b := SyntheticFeatures(16, 4, 7)
	if len(a) != 4 || len(a[0]) != 16 {
		t.Fatalf("wrong shape: %dx%d", len(a), len(a[0]))
	}
	for i := range a {
		if a[i][15] != 1 {
			t.Errorf("vector %d bias = %f", i, a[i][15])
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("same seed produced different features at [%d][%d]", i, j)
			}
		}
	}
	c := SyntheticFeatures(16, 4, 8)
	if a[0][0] == c[0][0] {
		t.Error("different seeds produced identical features")
	}
}

// TestLoadGenDeterministicCounts replays a seeded schedule twice: every
// request succeeds, the totals agree between runs and the decision cache
// gets hot on a heavily repeated pool.
func TestLoadGenDeterministicCounts(t *testing.T) {
	run := func() LoadReport {
		_, ts := newTestServer(t, WithCacheSize(64), WithMaxInflight(32))
		lg := LoadGen{
			Requests: 120,
			Seed:     42,
			Pool:     SyntheticFeatures(counters.Dim(counters.Basic), 8, 42),
			Mode:     "open",
			RPS:      2000,
		}
		rep, err := lg.Run(ts.URL, nil)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	r1, r2 := run(), run()
	if r1.Requests != 120 || r1.OK != 120 || r1.Rejected != 0 || r1.ServerErr != 0 || r1.Transport != 0 {
		t.Errorf("unexpected counts: %+v", r1)
	}
	if r1.Requests != r2.Requests || r1.OK != r2.OK {
		t.Errorf("seeded runs disagree: %d/%d vs %d/%d", r1.Requests, r1.OK, r2.Requests, r2.OK)
	}
	// 120 requests over an 8-vector pool: the cache must get hot.
	if r1.CacheHits == 0 {
		t.Error("no cache hits on a heavily repeated pool")
	}
}

func TestLoadGenEmptyPool(t *testing.T) {
	if _, err := (LoadGen{Requests: 1, Mode: "open", RPS: 10}).Run("http://127.0.0.1:0", nil); err == nil {
		t.Error("empty pool accepted")
	}
}

// TestQuantizedAgreesWithFloatServer asserts the §VIII deployment claim at
// the serving layer: across a seeded feature batch, the 8-bit engine must
// make the same per-parameter decision as the float engine almost always
// (>= 90% of parameter decisions).
func TestQuantizedAgreesWithFloatServer(t *testing.T) {
	pred := trainTestPredictor(t, counters.Basic)
	floatEng, err := NewEngine(pred, false)
	if err != nil {
		t.Fatal(err)
	}
	quantEng, err := NewEngine(pred, true)
	if err != nil {
		t.Fatal(err)
	}
	if !quantEng.Quantized() || floatEng.Quantized() {
		t.Fatal("engine modes wrong")
	}
	batch := SyntheticFeatures(counters.Dim(counters.Basic), 64, 2010)
	agree, total := 0, 0
	for _, f := range batch {
		fc, _ := floatEng.Predict(f)
		qc, _ := quantEng.Predict(f)
		for p := arch.Param(0); p < arch.NumParams; p++ {
			total++
			if fc[p] == qc[p] {
				agree++
			}
		}
	}
	if frac := float64(agree) / float64(total); frac < 0.9 {
		t.Errorf("quantized/float agreement %.1f%% (%d/%d), want >= 90%%", 100*frac, agree, total)
	}
}

// TestLoadGenScheduleDeterministic: the schedule is a pure function of the
// configuration — same seed, same arrivals; different seed, different ones.
func TestLoadGenScheduleDeterministic(t *testing.T) {
	lg := LoadGen{
		Requests: 200,
		Seed:     11,
		Pool:     SyntheticFeatures(counters.Dim(counters.Basic), 32, 11),
		Mode:     "open",
		RPS:      500,
		ZipfS:    1.1,
	}
	s1, err := lg.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := lg.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	if len(s1) != 200 {
		t.Fatalf("schedule length %d, want 200", len(s1))
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("same seed diverged at arrival %d: %+v vs %+v", i, s1[i], s2[i])
		}
		if s1[i].Index < 0 || s1[i].Index >= 32 || s1[i].Class >= NumClasses {
			t.Fatalf("arrival %d out of range: %+v", i, s1[i])
		}
		if i > 0 && s1[i].At < s1[i-1].At {
			t.Fatalf("arrival times not monotone at %d", i)
		}
	}
	lg.Seed = 12
	s3, err := lg.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range s1 {
		if s1[i] == s3[i] {
			same++
		}
	}
	if same == len(s1) {
		t.Error("different seeds produced the identical schedule")
	}
}

// TestLoadGenScheduleClassMix: the default mix covers all classes roughly
// proportionally.
func TestLoadGenScheduleClassMix(t *testing.T) {
	lg := LoadGen{
		Requests: 1000,
		Seed:     3,
		Pool:     SyntheticFeatures(counters.Dim(counters.Basic), 8, 3),
		Mode:     "open",
		RPS:      1000,
	}
	sched, err := lg.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	var counts [NumClasses]int
	for _, a := range sched {
		counts[a.Class]++
	}
	if counts[ClassInteractive] < counts[ClassBatch] || counts[ClassBatch] < counts[ClassBackground] {
		t.Errorf("default mix out of order: %v", counts)
	}
	for c := Class(0); c < NumClasses; c++ {
		if counts[c] == 0 {
			t.Errorf("class %s absent from default mix", c)
		}
	}
}

// TestLoadGenZipfSkew: a Zipf-skewed pool concentrates draws on the low
// indices.
func TestLoadGenZipfSkew(t *testing.T) {
	lg := LoadGen{
		Requests: 2000,
		Seed:     4,
		Pool:     SyntheticFeatures(counters.Dim(counters.Basic), 64, 4),
		Mode:     "open",
		RPS:      1000,
		ZipfS:    1.2,
	}
	sched, err := lg.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 64)
	for _, a := range sched {
		counts[a.Index]++
	}
	head := counts[0] + counts[1] + counts[2] + counts[3]
	if head < len(sched)/4 {
		t.Errorf("zipf head (top 4 of 64) drew only %d of %d", head, len(sched))
	}
	if counts[0] <= counts[63] {
		t.Errorf("index 0 (%d draws) not hotter than index 63 (%d)", counts[0], counts[63])
	}
}

// TestLoadGenOpenLoopDeterministicCounts runs the open loop twice against
// unsaturated servers: every count — total and per class — must repeat
// exactly, with nothing shed or rejected.
func TestLoadGenOpenLoopDeterministicCounts(t *testing.T) {
	run := func() LoadReport {
		_, ts := newTestServer(t, WithCacheSize(64), WithMaxInflight(64))
		lg := LoadGen{
			Requests: 150,
			Seed:     42,
			Pool:     SyntheticFeatures(counters.Dim(counters.Basic), 8, 42),
			Mode:     "open",
			RPS:      2000, // fast run; far below server capacity per-request
			ZipfS:    1.1,
		}
		rep, err := lg.Run(ts.URL, nil)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	r1, r2 := run(), run()
	if r1.Requests != 150 || r1.OK != 150 || r1.Shed != 0 || r1.Rejected != 0 || r1.Transport != 0 {
		t.Fatalf("unexpected counts: %+v", r1)
	}
	if len(r1.Classes) != len(r2.Classes) {
		t.Fatalf("class row counts differ: %d vs %d", len(r1.Classes), len(r2.Classes))
	}
	for i := range r1.Classes {
		a, b := r1.Classes[i], r2.Classes[i]
		if a.Class != b.Class || a.Requests != b.Requests || a.OK != b.OK || a.Shed != b.Shed {
			t.Errorf("class row %d differs between seeded runs: %+v vs %+v", i, a, b)
		}
	}
}

// TestLoadGenValidation rejects inconsistent configurations.
func TestLoadGenValidation(t *testing.T) {
	pool := SyntheticFeatures(counters.Dim(counters.Basic), 2, 1)
	cases := []LoadGen{
		{Requests: 1, Pool: pool, Mode: "open"},            // no RPS
		{Requests: 1, Pool: pool, RPS: 10},                 // no mode
		{Requests: 1, Pool: pool, Mode: "closed", RPS: 10}, // no closed loop
		{Requests: 1, Pool: pool, Mode: "ajar", RPS: 10},   // unknown mode
		// Non-finite values would give a NaN or zero mean gap.
		{Requests: 1, Pool: pool, Mode: "open", RPS: math.NaN()},
		{Requests: 1, Pool: pool, Mode: "open", RPS: math.Inf(1)},
		{Requests: 1, Pool: pool, Mode: "open", RPS: 10, ZipfS: math.NaN()},
		{Requests: 1, Pool: pool, Mode: "open", RPS: 10, ZipfS: math.Inf(1)},
	}
	for i, lg := range cases {
		if _, err := lg.Schedule(); err == nil {
			t.Errorf("case %d accepted: %+v", i, lg)
		}
	}
}

// TestServeOpenScheduleDigest pins the offered load of perfbench's
// serve-open workload: 12000 Poisson arrivals at 400 rps with Zipf(1)
// popularity over a 1024-vector pool and the default class mix. The
// SHA-256 runs over each arrival's At, Index and Class, so any change to
// the schedule's rng consumption, gap law, popularity law or class draw
// moves it.
func TestServeOpenScheduleDigest(t *testing.T) {
	want := map[uint64]string{
		1:    "ba568feeb54b4fca681aa35688a14fbe69cc6142d61332e2bf076bb4b5eda37e",
		1001: "8447afb3038849eef2ea4c86715ca458eae5493bedca06e2a057d4b6ace1ce9f",
	}
	for seed, digest := range want {
		sched, err := LoadGen{
			Requests: 12000,
			Seed:     seed,
			Pool:     SyntheticFeatures(counters.Dim(counters.Advanced), 1024, seed),
			Mode:     "open",
			RPS:      400,
			ZipfS:    1,
		}.Schedule()
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		var buf [17]byte
		for _, a := range sched {
			binary.LittleEndian.PutUint64(buf[0:], uint64(a.At))
			binary.LittleEndian.PutUint64(buf[8:], uint64(a.Index))
			buf[16] = byte(a.Class)
			h.Write(buf[:])
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != digest {
			t.Errorf("seed %d: schedule digest %s, want %s", seed, got, digest)
		}
	}
}
