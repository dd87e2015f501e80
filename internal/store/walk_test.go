package store

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cpu"
)

// damagedLog is a log of five records whose third supersedes the first
// (both key 0), whose second has a flipped payload byte and whose last is
// torn seven bytes short.
func damagedLog(tb testing.TB) []byte {
	dir := buildDir(tb, []int{0, 1, 0, 2, 3}, []int{0, 1, 2, 3, 4})
	clean, err := os.ReadFile(HeadLog(dir))
	if err != nil {
		tb.Fatal(err)
	}
	recLen := (len(clean) - headerSize) / 5
	log := append([]byte(nil), clean[:len(clean)-7]...)
	log[headerSize+recLen+recHeaderSize+keySize+4] ^= 0xff
	return log
}

// TestWalkersAgree holds Open, CheckDir and the frame walker they share to
// one reading of every fuzz seed log, the damaged log and a log that ends
// inside a record header. Open indexes the walker's intact records, the
// last one for a key winning; it drops what CheckDir drops plus one torn
// tail; and CheckDir's faults keep their exact wording.
func TestWalkersAgree(t *testing.T) {
	seeds := seedLogs(t)
	tornHeader := append(append([]byte(nil), seeds[0]...), 0x10, 0, 0, 0, 0)
	logs := append(seeds, damagedLog(t), tornHeader)
	const head = "DIR/results.log"
	wantFaults := [][]string{
		nil,
		{head + ": implausible record framing at offset 1148 (payload length 372)"},
		{head + ": CRC mismatch at offset 8 (record dropped)"},
		nil,
		{head + ": undecodable record value at offset 8: store: record value is 11 bytes, want 340 or 3896"},
		nil,
		{head + ": not a result store log (bad magic)"},
		{head + ": log format v2, this binary reads v1"},
		{head + ": shorter than the 8-byte log header"},
		{
			head + ": CRC mismatch at offset 388 (record dropped)",
			head + ": implausible record framing at offset 1528 (payload length 372)",
		},
		{head + ": torn record header at offset 1528 (5 trailing bytes)"},
	}
	if len(logs) != len(wantFaults) {
		t.Fatalf("%d logs, %d fault expectations", len(logs), len(wantFaults))
	}
	stamp := []byte(strconv.Itoa(SimVersion) + "\n")
	for i, log := range logs {
		t.Run(strconv.Itoa(i), func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(HeadLog(dir), log, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, simVersionFileName), stamp, 0o644); err != nil {
				t.Fatal(err)
			}
			c, err := CheckDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			var faults []string
			for _, f := range c.Faults {
				faults = append(faults, strings.ReplaceAll(f, dir, "DIR"))
			}
			if !reflect.DeepEqual(faults, wantFaults[i]) {
				t.Errorf("CheckDir faults %q, want %q", faults, wantFaults[i])
			}

			// The walker's reading: intact records, last one per key.
			type visit struct {
				off     int64
				payload []byte
			}
			want := map[Key]visit{}
			var torn bool
			headerOK := headerFault(HeadLog(dir), log) == ""
			if headerOK {
				end := walkFrames(log, func(fr frame, crcOK bool) {
					if crcOK {
						want[Key(fr.payload[:keySize])] = visit{fr.off + recHeaderSize, fr.payload}
					}
				})
				torn = end < int64(len(log))
			}

			s, err := Open(dir)
			if len(log) >= headerSize && !headerOK {
				if err == nil {
					s.Close()
					t.Fatal("Open accepted a log with a foreign header")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			st := s.Stats()
			wantDropped := c.Dropped
			if torn {
				wantDropped++
			}
			if st.Dropped != wantDropped || st.Superseded != c.Superseded {
				t.Errorf("Open dropped %d and superseded %d records; CheckDir %d and %d, torn tail %t",
					st.Dropped, st.Superseded, c.Dropped, c.Superseded, torn)
			}
			if len(s.index) != len(want) {
				t.Errorf("Open indexed %d keys, the walker found %d", len(s.index), len(want))
			}
			for k, w := range want {
				loc, ok := s.index[k]
				if !ok {
					t.Errorf("Open did not index the walker's key %x", k[:4])
					continue
				}
				// Compaction moves records, so offsets agree only on a log
				// Open left in place; payloads must agree either way.
				if st.Compactions == 0 && loc.off != w.off {
					t.Errorf("key %x indexed at %d, the walker's last record for it is at %d", k[:4], loc.off, w.off)
				}
				got := make([]byte, loc.plen)
				if _, err := s.f.ReadAt(got, loc.off); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, w.payload) {
					t.Errorf("key %x: indexed payload differs from the walker's last record", k[:4])
				}
			}
		})
	}
}

// replayLog writes a store log shaped like a 26-program, two-phase
// build's: 720 measurement records and 52 profile records. It returns the
// directory, every key in write order and the result stored under each.
func replayLog(tb testing.TB) (string, []Key, []*cpu.Result) {
	dir := tb.TempDir()
	s, err := Open(dir)
	if err != nil {
		tb.Fatal(err)
	}
	var keys []Key
	var want []*cpu.Result
	add := func(k Key, r *cpu.Result) {
		if err := s.Put(k, r); err != nil {
			tb.Fatal(err)
		}
		keys, want = append(keys, k), append(want, r)
	}
	for i := 0; i < 720; i++ {
		add(fakeKey(i), fakeResult(i))
	}
	for i := 0; i < 52; i++ {
		add(fakeProfileKey(i), fakeProfile(i))
	}
	if err := s.Close(); err != nil {
		tb.Fatal(err)
	}
	return dir, keys, want
}

// BenchmarkStoreReplay times one warm replay of replayLog's log, each
// iteration opening the store, reading every record and closing it.
// serial reads from one goroutine; parallel splits the keys between two
// goroutines that take the next key from a shared counter, the way the
// build pool's two executors take jobs.
func BenchmarkStoreReplay(b *testing.B) {
	dir, keys, _ := replayLog(b)
	replay := func(b *testing.B, readers int) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s, err := Open(dir)
			if err != nil {
				b.Fatal(err)
			}
			var next atomic.Int64
			var missed atomic.Bool
			var wg sync.WaitGroup
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for j := next.Add(1) - 1; j < int64(len(keys)); j = next.Add(1) - 1 {
						if _, ok := s.Get(keys[j]); !ok {
							missed.Store(true)
						}
					}
				}()
			}
			wg.Wait()
			if missed.Load() {
				b.Fatal("replay missed a stored record")
			}
			if err := s.Close(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("serial", func(b *testing.B) { replay(b, 1) })
	b.Run("parallel", func(b *testing.B) { replay(b, 2) })
}
