package store

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// seedLogs returns result logs for the fuzz corpora, built from the same
// fixtures as the unit tests: a clean log written through Put, that log
// torn mid-record and with one flipped payload byte, a log holding a
// CRC-valid record whose value does not decode, a bare header, a foreign
// magic, a future format version and an empty file.
func seedLogs(tb testing.TB) [][]byte {
	dir := buildDir(tb, []int{0, 1, 2, 1}, []int{0, 1, 2, 3})
	clean, err := os.ReadFile(HeadLog(dir))
	if err != nil {
		tb.Fatal(err)
	}
	torn := clean[:len(clean)-7]
	flipped := append([]byte(nil), clean...)
	flipped[headerSize+recHeaderSize+keySize+4] ^= 0xff

	key := fakeKey(7)
	payload := append(key[:], "short value"...)
	undecodable := append([]byte(nil), clean[:headerSize]...)
	undecodable = binary.LittleEndian.AppendUint32(undecodable, uint32(len(payload)))
	undecodable = binary.LittleEndian.AppendUint32(undecodable, crc32.Checksum(payload, castagnoli))
	undecodable = append(undecodable, payload...)

	future := append([]byte(nil), clean[:headerSize]...)
	binary.LittleEndian.PutUint32(future[4:], formatVersion+1)
	return [][]byte{clean, torn, flipped, undecodable, clean[:headerSize], []byte("RSNP\x01\x00\x00\x00"), future, nil}
}

// FuzzStoreOpen writes arbitrary bytes as results.log. Open must never
// panic and may refuse the file only for a foreign magic or format
// version; whatever it indexes is served only when decodeResult accepts
// the record, and the recovered log must take and replay new appends.
func FuzzStoreOpen(f *testing.F) {
	for _, seed := range seedLogs(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(HeadLog(dir), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err != nil {
			if msg := err.Error(); !strings.Contains(msg, "bad magic") && !strings.Contains(msg, "log format v") {
				t.Fatalf("Open refused the log for a reason other than magic or version: %v", err)
			}
			return
		}
		defer s.Close()
		locs := map[Key]recLoc{}
		for k, loc := range s.index {
			locs[k] = loc
		}
		for k, loc := range locs {
			raw := make([]byte, loc.plen)
			if _, err := s.f.ReadAt(raw, loc.off); err != nil {
				t.Fatalf("indexed record unreadable: %v", err)
			}
			want, decErr := decodeResult(raw[keySize:])
			got, ok := s.Get(k)
			if ok != (decErr == nil) {
				t.Fatalf("Get served=%v but decodeResult err=%v", ok, decErr)
			}
			if ok && !reflect.DeepEqual(encodeResult(got), encodeResult(want)) {
				t.Fatal("Get served a result different from the record it indexed")
			}
		}

		key := Fingerprint("fuzz", 0, fakeResult(5).Config, 1, 1)
		if err := s.Put(key, fakeResult(5)); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(dir)
		if err != nil {
			t.Fatalf("reopening a recovered log: %v", err)
		}
		defer s2.Close()
		if got, ok := s2.Get(key); !ok || !reflect.DeepEqual(encodeResult(got), encodeResult(fakeResult(5))) {
			t.Fatal("append after recovery did not replay")
		}
	})
}

// FuzzScanLogFile audits arbitrary bytes as results.log through CheckDir.
// The audit must never panic and reports format damage as faults, not
// errors; when it finds nothing wrong, Open must agree on the live record
// count and drop nothing.
func FuzzScanLogFile(f *testing.F) {
	for _, seed := range seedLogs(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(HeadLog(dir), data, 0o644); err != nil {
			t.Fatal(err)
		}
		stamp := []byte(strconv.Itoa(SimVersion) + "\n")
		if err := os.WriteFile(filepath.Join(dir, simVersionFileName), stamp, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := CheckDir(dir)
		if err != nil {
			t.Fatalf("CheckDir returned an error for format damage: %v", err)
		}
		if !c.Ok() {
			return
		}
		s, err := Open(dir)
		if err != nil {
			t.Fatalf("audit passed but Open failed: %v", err)
		}
		defer s.Close()
		if st := s.Stats(); s.Len() != c.Live || st.Dropped != 0 {
			t.Fatalf("audit found %d live records, Open indexed %d and dropped %d", c.Live, s.Len(), st.Dropped)
		}
	})
}
