package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// oldSidecar builds a valid warmup-snapshot sidecar as builds with warmup
// checkpoints wrote it next to results.log: the "RSNP" magic, the shared
// framing version, then length + CRC-32C framed records whose payload is
// a 32-byte key followed by opaque snapshot bytes.
func oldSidecar(n int) []byte {
	b := []byte("RSNP")
	b = binary.LittleEndian.AppendUint32(b, formatVersion)
	for i := 0; i < n; i++ {
		key := sha256.Sum256([]byte{byte(i)})
		payload := append(key[:], bytes.Repeat([]byte{byte(i + 1)}, 64+i)...)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
		b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(payload, castagnoli))
		b = append(b, payload...)
	}
	return b
}

// TestOldSnapshotSidecarIgnored: store directories written while warmup
// checkpoints existed still hold a snapshots.log. Nothing reads it any
// more; Open, Get, Compact, Merge and CheckDir must all work around it
// without reporting it as a fault or touching it.
func TestOldSnapshotSidecarIgnored(t *testing.T) {
	dir := buildDir(t, []int{0, 1, 2}, []int{0, 1, 2})
	sidecar := filepath.Join(dir, "snapshots.log")
	want := oldSidecar(3)
	if err := os.WriteFile(sidecar, want, 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open with an old sidecar: %v", err)
	}
	for i := 0; i < 3; i++ {
		got, ok := s.Get(fakeKey(i))
		if !ok || !reflect.DeepEqual(got, fakeResult(i)) {
			t.Fatalf("Get(%d) = %v, %v; want the stored result", i, got, ok)
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatalf("Compact with an old sidecar: %v", err)
	}
	if st := s.Stats(); st.Records != 3 || st.Dropped != 0 {
		t.Fatalf("stats = %+v, want 3 records and nothing dropped", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	c, err := CheckDir(dir)
	if err != nil {
		t.Fatalf("CheckDir with an old sidecar: %v", err)
	}
	head, err := os.Stat(HeadLog(dir))
	if err != nil {
		t.Fatal(err)
	}
	if !c.Ok() || c.Live != 3 || c.Dropped != 0 || c.Bytes != head.Size() || len(c.Logs) != 1 {
		t.Fatalf("CheckDir = ok %v live %d dropped %d bytes %d logs %d, faults %v; want only the head log audited",
			c.Ok(), c.Live, c.Dropped, c.Bytes, len(c.Logs), c.Faults)
	}

	// As a merge source the sidecar is not carried over; as a merge
	// destination it is left as it was.
	dst := t.TempDir()
	ms, err := Merge(dst, dir)
	if err != nil {
		t.Fatalf("Merge from a dir with an old sidecar: %v", err)
	}
	if ms.Records != 3 || ms.Dropped != 0 {
		t.Fatalf("merge stats = %+v, want 3 records and nothing dropped", ms)
	}
	if _, err := os.Stat(filepath.Join(dst, "snapshots.log")); !os.IsNotExist(err) {
		t.Fatalf("merge copied the sidecar (stat err %v)", err)
	}
	other := buildDir(t, []int{3}, []int{3})
	if ms, err = Merge(dir, other); err != nil {
		t.Fatalf("Merge into a dir with an old sidecar: %v", err)
	}
	if ms.Records != 4 {
		t.Fatalf("merge into the old dir holds %d records, want 4", ms.Records)
	}

	got, err := os.ReadFile(sidecar)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("old sidecar changed or removed (err %v)", err)
	}
}
