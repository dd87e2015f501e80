// Read-only auditing for storectl: walk a store directory's head log
// validating framing, CRCs, payload decodability and the SimVersion
// stamp, describing every fault instead of repairing anything.
package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// logScan reports one tolerant walk over a single log file.
type logScan struct {
	Dropped int      // CRC-damaged records skipped
	Bytes   int64    // file size
	Faults  []string // human-readable fault descriptions with offsets
}

// scanLogFile walks one log tolerantly, invoking visit for every record
// whose framing and CRC check out. Faults are described, never fatal:
// framing damage ends the walk (torn tail), payload damage skips one
// record. The returned error covers I/O failures only.
func scanLogFile(path string, visit func(off int64, key Key, payload []byte)) (*logScan, error) {
	ls := &logScan{}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("store: opening %s: %w", path, err)
	}
	defer f.Close()
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, fmt.Errorf("store: sizing %s: %w", path, err)
	}
	ls.Bytes = size
	fault := func(format string, args ...any) {
		ls.Faults = append(ls.Faults, fmt.Sprintf(format, args...))
	}
	if size < headerSize {
		fault("%s: shorter than the %d-byte log header", path, headerSize)
		return ls, nil
	}
	var hdr [headerSize]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		return nil, fmt.Errorf("store: reading %s header: %w", path, err)
	}
	if string(hdr[:4]) != fileMagic {
		fault("%s: not a result store log (bad magic)", path)
		return ls, nil
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != formatVersion {
		fault("%s: log format v%d, this binary reads v%d", path, v, formatVersion)
		return ls, nil
	}
	off := int64(headerSize)
	var rh [recHeaderSize]byte
	for off < size {
		if off+recHeaderSize > size {
			fault("%s: torn record header at offset %d (%d trailing bytes)", path, off, size-off)
			return ls, nil
		}
		if _, err := f.ReadAt(rh[:], off); err != nil {
			return nil, fmt.Errorf("store: reading %s at %d: %w", path, off, err)
		}
		plen := int64(binary.LittleEndian.Uint32(rh[:4]))
		crc := binary.LittleEndian.Uint32(rh[4:])
		if plen < keySize || plen > maxPayload || off+recHeaderSize+plen > size {
			fault("%s: implausible record framing at offset %d (payload length %d)", path, off, plen)
			return ls, nil
		}
		payload := make([]byte, plen)
		if _, err := f.ReadAt(payload, off+recHeaderSize); err != nil {
			return nil, fmt.Errorf("store: reading %s at %d: %w", path, off, err)
		}
		next := off + recHeaderSize + plen
		if crc32.Checksum(payload, castagnoli) != crc {
			ls.Dropped++
			fault("%s: CRC mismatch at offset %d (record dropped)", path, off)
			off = next
			continue
		}
		var key Key
		copy(key[:], payload[:keySize])
		visit(off, key, payload)
		off = next
	}
	return ls, nil
}

// DirCheck aggregates storectl's read-only audit of one store directory.
type DirCheck struct {
	Dir        string
	SimVersion int // sidecar stamp value (0 when missing)
	HasStamp   bool
	Live       int // distinct keys after supersede resolution
	Profiles   int // live keys whose record holds a profiling run
	Superseded int
	Dropped    int
	Bytes      int64
	Faults     []string // every fault found, dir-level first
}

// Ok reports whether the audit found nothing wrong.
func (c *DirCheck) Ok() bool { return len(c.Faults) == 0 }

// CheckDir audits dir: framing, CRCs, value decodability and the
// SimVersion stamp. Strictly read-only — unlike Open it repairs nothing —
// but it does take the directory lock, so auditing a store another
// process is appending to fails fast with the lock error instead of
// reporting torn bytes. The returned error covers I/O and lock failures;
// format problems land in Faults.
func CheckDir(dir string) (*DirCheck, error) {
	c := &DirCheck{Dir: dir}
	lock, err := acquireLock(filepath.Join(dir, lockFileName))
	if err != nil {
		return nil, err
	}
	defer lock.Close()

	v, ok := readSimVersion(dir)
	c.SimVersion, c.HasStamp = v, ok
	if !ok {
		c.Faults = append(c.Faults, fmt.Sprintf("%s: no simversion stamp — open the store once (any report/adaptd run) to stamp it", dir))
	} else if v != SimVersion {
		c.Faults = append(c.Faults, fmt.Sprintf("%s: stamped simversion %d but this binary simulates version %d — records will never match", dir, v, SimVersion))
	}

	head := HeadLog(dir)
	if _, err := os.Stat(head); err != nil {
		c.Faults = append(c.Faults, fmt.Sprintf("%s: no head log (%s)", dir, dataFileName))
		return c, nil
	}
	profile := map[Key]bool{} // live key -> its latest record is a profiling run
	ls, err := scanLogFile(head, func(off int64, key Key, payload []byte) {
		if _, ok := profile[key]; ok {
			c.Superseded++
		}
		res, err := decodeResult(payload[keySize:])
		if err != nil {
			c.Faults = append(c.Faults, fmt.Sprintf("%s: undecodable record value at offset %d: %v", head, off, err))
		}
		profile[key] = err == nil && res.Counters != nil
	})
	if err != nil {
		return nil, err
	}
	c.Dropped = ls.Dropped
	c.Bytes = ls.Bytes
	c.Faults = append(c.Faults, ls.Faults...)
	c.Live = len(profile)
	for _, p := range profile {
		if p {
			c.Profiles++
		}
	}
	return c, nil
}
