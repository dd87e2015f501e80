// Read-only auditing for storectl: walk a store directory's head log
// validating framing, CRCs, payload decodability and the SimVersion
// stamp, describing every fault instead of repairing anything.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
)

// readHeadLog reads dir's head log whole. ok is false when there is no
// head log.
func readHeadLog(dir string) (log []byte, ok bool, err error) {
	log, err = os.ReadFile(HeadLog(dir))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("store: reading %s: %w", HeadLog(dir), err)
	}
	return log, true, nil
}

// headerFault describes why the log image read from path has no readable
// header, or returns "" when it has one.
func headerFault(path string, log []byte) string {
	switch {
	case len(log) < headerSize:
		return fmt.Sprintf("%s: shorter than the %d-byte log header", path, headerSize)
	case string(log[:4]) != fileMagic:
		return fmt.Sprintf("%s: not a result store log (bad magic)", path)
	}
	if v := binary.LittleEndian.Uint32(log[4:]); v != formatVersion {
		return fmt.Sprintf("%s: log format v%d, this binary reads v%d", path, v, formatVersion)
	}
	return ""
}

// DirCheck aggregates storectl's read-only audit of one store directory.
type DirCheck struct {
	Dir        string
	SimVersion int // sidecar stamp value (0 when missing)
	HasStamp   bool
	Live       int // distinct keys after supersede resolution
	Profiles   int // live keys whose record holds a profiling run
	Superseded int
	Dropped    int // CRC-damaged records skipped
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
// format problems land in Faults: framing damage ends the walk (torn
// tail), payload damage skips one record.
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
	log, ok, err := readHeadLog(dir)
	if err != nil {
		return nil, err
	}
	if !ok {
		c.Faults = append(c.Faults, fmt.Sprintf("%s: no head log (%s)", dir, dataFileName))
		return c, nil
	}
	c.Bytes = int64(len(log))
	if f := headerFault(head, log); f != "" {
		c.Faults = append(c.Faults, f)
		return c, nil
	}
	profile := map[Key]bool{} // live key -> its latest record is a profiling run
	var damage []string       // CRC and framing faults, listed after undecodable values
	end := walkFrames(log, func(fr frame, crcOK bool) {
		if !crcOK {
			c.Dropped++
			damage = append(damage, fmt.Sprintf("%s: CRC mismatch at offset %d (record dropped)", head, fr.off))
			return
		}
		key := Key(fr.payload[:keySize])
		if _, ok := profile[key]; ok {
			c.Superseded++
		}
		res, err := decodeResult(fr.payload[keySize:])
		if err != nil {
			c.Faults = append(c.Faults, fmt.Sprintf("%s: undecodable record value at offset %d: %v", head, fr.off, err))
		}
		profile[key] = err == nil && res.Counters != nil
	})
	switch size := c.Bytes; {
	case end == size:
	case end+recHeaderSize > size:
		damage = append(damage, fmt.Sprintf("%s: torn record header at offset %d (%d trailing bytes)", head, end, size-end))
	default:
		damage = append(damage, fmt.Sprintf("%s: implausible record framing at offset %d (payload length %d)", head, end, binary.LittleEndian.Uint32(log[end:])))
	}
	c.Faults = append(c.Faults, damage...)
	c.Live = len(profile)
	for _, p := range profile {
		if p {
			c.Profiles++
		}
	}
	return c, nil
}
