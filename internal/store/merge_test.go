package store

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestMergeUnionsDisjointStores(t *testing.T) {
	a := buildDir(t, []int{0, 1, 2}, []int{0, 1, 2})
	b := buildDir(t, []int{3, 4}, []int{3, 4})
	dst := t.TempDir()
	ms, err := Merge(dst, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if ms.Sources != 2 || ms.Records != 5 || ms.Added != 5 || ms.Dedup != 0 {
		t.Fatalf("stats = %+v, want 2 sources, 5 records, 5 added, 0 dedup", ms)
	}
	s, err := Open(dst)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Len() != 5 {
		t.Fatalf("merged store has %d records, want 5", s.Len())
	}
	for i := 0; i < 5; i++ {
		res, ok := s.Get(fakeKey(i))
		if !ok {
			t.Fatalf("key %d missing after merge", i)
		}
		if res.Cycles != uint64(1000+i) {
			t.Fatalf("key %d: cycles = %d, want %d", i, res.Cycles, 1000+i)
		}
	}
}

func TestMergeDedupesIdenticalDuplicates(t *testing.T) {
	a := buildDir(t, []int{0, 1}, []int{0, 1})
	b := buildDir(t, []int{1, 2}, []int{1, 2}) // key 1 identical in both
	dst := t.TempDir()
	ms, err := Merge(dst, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if ms.Records != 3 || ms.Dedup != 1 {
		t.Fatalf("stats = %+v, want 3 records with 1 dedup", ms)
	}
}

func TestMergeRefusesDivergentDuplicate(t *testing.T) {
	a := buildDir(t, []int{0, 1}, []int{0, 1})
	b := buildDir(t, []int{1}, []int{99}) // key 1, different result bytes
	dst := t.TempDir()
	_, err := Merge(dst, a, b)
	if err == nil {
		t.Fatal("merge of divergent duplicates succeeded, want hard error")
	}
	if !strings.Contains(err.Error(), "merge conflict on key") {
		t.Fatalf("error %q does not name the conflict", err)
	}
	// The error must name the offending key (hex prefix).
	k := fakeKey(1)
	wantHex := ""
	for _, b := range k[:8] {
		const hexdigits = "0123456789abcdef"
		wantHex += string(hexdigits[b>>4]) + string(hexdigits[b&0xf])
	}
	if !strings.Contains(err.Error(), wantHex) {
		t.Fatalf("error %q does not contain key hex %s", err, wantHex)
	}
	// The destination must not have been written.
	if _, err := os.Stat(HeadLog(dst)); !os.IsNotExist(err) {
		t.Fatalf("destination log exists after refused merge (stat err %v)", err)
	}
}

func TestMergeRejectsSimVersionMismatch(t *testing.T) {
	a := buildDir(t, []int{0}, []int{0})
	if err := os.WriteFile(filepath.Join(a, simVersionFileName), []byte("999\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Merge(t.TempDir(), a)
	if err == nil || !strings.Contains(err.Error(), "simversion 999") {
		t.Fatalf("merge of mismatched simversion: err = %v, want stamp mismatch", err)
	}

	b := buildDir(t, []int{1}, []int{1})
	if err := os.Remove(filepath.Join(b, simVersionFileName)); err != nil {
		t.Fatal(err)
	}
	_, err = Merge(t.TempDir(), b)
	if err == nil || !strings.Contains(err.Error(), "no simversion stamp") {
		t.Fatalf("merge of unstamped store: err = %v, want missing-stamp error", err)
	}
}

func TestMergeRecoversCorruptSource(t *testing.T) {
	a := buildDir(t, []int{0, 1, 2}, []int{0, 1, 2})
	path := HeadLog(a)
	recs := recordOffsets(t, path)
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside record 1's value, then append a torn tail.
	flipAt := recs[1][0] + recHeaderSize + keySize + 4
	buf := make([]byte, 1)
	if _, err := f.ReadAt(buf, flipAt); err != nil {
		t.Fatal(err)
	}
	buf[0] ^= 0xff
	if _, err := f.WriteAt(buf, flipAt); err != nil {
		t.Fatal(err)
	}
	end, _ := f.Seek(0, 2)
	if _, err := f.WriteAt([]byte{1, 2, 3}, end); err != nil {
		t.Fatal(err)
	}
	f.Close()

	dst := t.TempDir()
	ms, err := Merge(dst, a)
	if err != nil {
		t.Fatal(err)
	}
	if ms.Records != 2 || ms.Dropped != 1 {
		t.Fatalf("stats = %+v, want 2 records with 1 dropped (the flipped byte; the torn tail never framed a record)", ms)
	}
	s, err := Open(dst)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, ok := s.Get(fakeKey(1)); ok {
		t.Fatal("corrupted record survived the merge")
	}
	for _, i := range []int{0, 2} {
		if _, ok := s.Get(fakeKey(i)); !ok {
			t.Fatalf("intact record %d lost in the merge", i)
		}
	}
}

// TestMergeDeterministicAnyOrder pins the ordering guarantee: the
// merged log is byte-identical for any source order (keys are written
// sorted, never in map-iteration or argument order).
func TestMergeDeterministicAnyOrder(t *testing.T) {
	a := buildDir(t, []int{0, 1, 2, 3}, []int{0, 1, 2, 3})
	b := buildDir(t, []int{2, 3, 4}, []int{2, 3, 4}) // overlaps a
	c := buildDir(t, []int{5, 6}, []int{5, 6})
	orders := [][]string{{a, b, c}, {c, b, a}, {b, c, a}}
	var logs [][]byte
	for _, order := range orders {
		dst := t.TempDir()
		if _, err := Merge(dst, order...); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(HeadLog(dst))
		if err != nil {
			t.Fatal(err)
		}
		logs = append(logs, data)
	}
	for i := 1; i < len(logs); i++ {
		if !bytes.Equal(logs[0], logs[i]) {
			t.Fatalf("merge order %v produced different bytes than %v", orders[i], orders[0])
		}
	}
}

func TestMergeIntoExistingStore(t *testing.T) {
	dst := buildDir(t, []int{0, 1}, []int{0, 1})
	src := buildDir(t, []int{1, 2}, []int{1, 2})
	ms, err := Merge(dst, src)
	if err != nil {
		t.Fatal(err)
	}
	if ms.Records != 3 || ms.Added != 1 || ms.Dedup != 1 {
		t.Fatalf("stats = %+v, want 3 records, 1 added, 1 dedup", ms)
	}
	s, err := Open(dst)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Len() != 3 {
		t.Fatalf("merged store has %d records, want 3", s.Len())
	}
}

// TestMergedStoreIndistinguishable pins the CLAUDE.md merge contract at
// the record level: a store assembled by Merge serves byte-identical
// values to one that wrote the same records sequentially, and its head
// log equals a sequential store's compacted log written in the same key
// order.
func TestMergedStoreIndistinguishable(t *testing.T) {
	a := buildDir(t, []int{0, 1}, []int{0, 1})
	b := buildDir(t, []int{2, 3}, []int{2, 3})
	dst := t.TempDir()
	if _, err := Merge(dst, a, b); err != nil {
		t.Fatal(err)
	}
	seq := buildDir(t, []int{0, 1, 2, 3}, []int{0, 1, 2, 3})

	ms, err := Open(dst)
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	ss, err := Open(seq)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	for i := 0; i < 4; i++ {
		mr, ok1 := ms.Get(fakeKey(i))
		sr, ok2 := ss.Get(fakeKey(i))
		if !ok1 || !ok2 {
			t.Fatalf("key %d: merged hit=%v sequential hit=%v", i, ok1, ok2)
		}
		me, se := encodeResult(mr), encodeResult(sr)
		if !bytes.Equal(me, se) {
			t.Fatalf("key %d: merged and sequential values differ", i)
		}
	}
}

// TestMergeRefusesUnreadableDestination: a destination log from another
// format version holds records this binary cannot read; Merge must fail
// and leave its bytes as they were, not rename its output over them.
func TestMergeRefusesUnreadableDestination(t *testing.T) {
	dst := buildDir(t, []int{0, 1}, []int{0, 1})
	src := buildDir(t, []int{2}, []int{2})
	path := HeadLog(dst)
	log, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(log[4:], formatVersion+1)
	if err := os.WriteFile(path, log, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Merge(dst, src)
	if err == nil || !strings.Contains(err.Error(), "log format v2") {
		t.Fatalf("merge into a v2 log: err = %v, want a format-version error", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, log) {
		t.Fatalf("refused merge changed the destination log (%d bytes, was %d)", len(after), len(log))
	}
}

// TestMergeRefusesForeignSource: a source whose results.log is not a
// store log fails the merge instead of merging as empty.
func TestMergeRefusesForeignSource(t *testing.T) {
	src := buildDir(t, []int{0}, []int{0})
	if err := os.WriteFile(HeadLog(src), []byte("definitely not a result store"), 0o644); err != nil {
		t.Fatal(err)
	}
	dst := t.TempDir()
	_, err := Merge(dst, src)
	if err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("merge of a foreign source: err = %v, want a bad-magic error", err)
	}
	if _, err := os.Stat(HeadLog(dst)); !os.IsNotExist(err) {
		t.Fatalf("refused merge wrote a destination log (stat err = %v)", err)
	}
}
