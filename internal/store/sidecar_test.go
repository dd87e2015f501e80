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

// oldSegment builds a valid sealed segment log as stores that adopted
// or merged records held next to results.log: the head log's own "RSTO"
// framing around one record per key.
func oldSegment(keys ...int) []byte {
	b := []byte(fileMagic)
	b = binary.LittleEndian.AppendUint32(b, formatVersion)
	for _, k := range keys {
		key := fakeKey(k)
		payload := append(key[:], encodeResult(fakeResult(k))...)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
		b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(payload, castagnoli))
		b = append(b, payload...)
	}
	return b
}

// TestOldSnapshotSidecarIgnored: store directories written by older
// builds may still hold a snapshots.log (warmup checkpoints) or a
// segment-*.log (adopted or merged records). Nothing reads either any
// more; Open, Get, Compact, Merge and CheckDir must all work around
// them without serving or merging their records, reporting them as
// faults or touching them.
func TestOldSnapshotSidecarIgnored(t *testing.T) {
	dir := buildDir(t, []int{0, 1, 2}, []int{0, 1, 2})
	leftovers := map[string][]byte{
		"snapshots.log": oldSidecar(3),
		// Key 3 is valid and absent from the head log.
		"segment-0123456789abcdef.log": oldSegment(3),
	}
	for name, data := range leftovers {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open with old sidecars: %v", err)
	}
	if st := s.Stats(); st.Records != 3 || st.Dropped != 0 {
		t.Fatalf("open stats = %+v, want 3 records and nothing dropped", st)
	}
	for i := 0; i < 3; i++ {
		got, ok := s.Get(fakeKey(i))
		if !ok || !reflect.DeepEqual(got, fakeResult(i)) {
			t.Fatalf("Get(%d) = %v, %v; want the stored result", i, got, ok)
		}
	}
	if got, ok := s.Get(fakeKey(3)); ok {
		t.Fatalf("Get(3) = %v; the segment's record must not be served", got)
	}
	if err := s.Compact(); err != nil {
		t.Fatalf("Compact with old sidecars: %v", err)
	}
	if st := s.Stats(); st.Records != 3 || st.Dropped != 0 {
		t.Fatalf("stats = %+v, want 3 records and nothing dropped", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	c, err := CheckDir(dir)
	if err != nil {
		t.Fatalf("CheckDir with old sidecars: %v", err)
	}
	head, err := os.Stat(HeadLog(dir))
	if err != nil {
		t.Fatal(err)
	}
	if !c.Ok() || c.Live != 3 || c.Dropped != 0 || c.Bytes != head.Size() {
		t.Fatalf("CheckDir = ok %v live %d dropped %d bytes %d, faults %v; want only the head log audited",
			c.Ok(), c.Live, c.Dropped, c.Bytes, c.Faults)
	}

	// As a merge source the leftovers are not carried over; as a merge
	// destination they are left as they were.
	dst := t.TempDir()
	ms, err := Merge(dst, dir)
	if err != nil {
		t.Fatalf("Merge from a dir with old sidecars: %v", err)
	}
	if ms.Records != 3 || ms.Dropped != 0 {
		t.Fatalf("merge stats = %+v, want 3 records and nothing dropped", ms)
	}
	for name := range leftovers {
		if _, err := os.Stat(filepath.Join(dst, name)); !os.IsNotExist(err) {
			t.Fatalf("merge copied %s (stat err %v)", name, err)
		}
	}
	other := buildDir(t, []int{3}, []int{3})
	if ms, err = Merge(dir, other); err != nil {
		t.Fatalf("Merge into a dir with old sidecars: %v", err)
	}
	if ms.Records != 4 {
		t.Fatalf("merge into the old dir holds %d records, want 4", ms.Records)
	}

	for name, want := range leftovers {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s changed or removed (err %v)", name, err)
		}
	}
}
