package store

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// buildDir creates a store directory holding the records keys[i] ->
// fakeResult(vals[i]) in order, via the normal Put path.
func buildDir(t testing.TB, keys []int, vals []int) string {
	t.Helper()
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if err := s.Put(fakeKey(k), fakeResult(vals[i])); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestCheckDirFlagsCorruption(t *testing.T) {
	dir := buildDir(t, []int{0, 1, 2}, []int{0, 1, 2})
	c, err := CheckDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Ok() || c.Live != 3 {
		t.Fatalf("clean store: faults=%v live=%d, want none and 3", c.Faults, c.Live)
	}

	// Flip one byte inside a record payload: exactly one fault.
	path := HeadLog(dir)
	recs := recordOffsets(t, path)
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	flipAt := recs[1][0] + recHeaderSize + keySize + 4
	buf := make([]byte, 1)
	if _, err := f.ReadAt(buf, flipAt); err != nil {
		t.Fatal(err)
	}
	buf[0] ^= 0xff
	if _, err := f.WriteAt(buf, flipAt); err != nil {
		t.Fatal(err)
	}
	f.Close()
	c, err = CheckDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if c.Ok() || c.Dropped != 1 || c.Live != 2 {
		t.Fatalf("corrupt store: ok=%v dropped=%d live=%d, want a fault, 1 dropped, 2 live", c.Ok(), c.Dropped, c.Live)
	}
	if !strings.Contains(strings.Join(c.Faults, "\n"), "CRC mismatch") {
		t.Fatalf("faults %v do not name the CRC mismatch", c.Faults)
	}

	// A stamp mismatch is a fault too.
	dir2 := buildDir(t, []int{0}, []int{0})
	if err := os.WriteFile(filepath.Join(dir2, simVersionFileName), []byte("999\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err = CheckDir(dir2)
	if err != nil {
		t.Fatal(err)
	}
	if c.Ok() || !strings.Contains(strings.Join(c.Faults, "\n"), "simversion 999") {
		t.Fatalf("stamp mismatch not flagged: faults=%v", c.Faults)
	}
}

// TestOpenStampsSimVersion checks Open writes (and refreshes) the sidecar.
func TestOpenStampsSimVersion(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	v, ok := readSimVersion(dir)
	if !ok || v != SimVersion {
		t.Fatalf("stamp after open = (%d, %v), want (%d, true)", v, ok, SimVersion)
	}
}
