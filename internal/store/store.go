// Package store is the persistent, content-addressed simulation-result
// cache: a single-writer, append-only log of cpu.Results keyed by a
// SHA-256 fingerprint over the canonical simulation inputs (SimVersion,
// program, phase, configuration, interval and warmup lengths). It holds
// measurement-mode runs (Fingerprint) and profiling-mode runs with their
// Table II RawCounters (ProfileFingerprint, which also covers the
// set-sampling level). It turns repeat pipeline runs — cmd/report
// regenerations, bench-harness restarts, adaptd first-boot retrains —
// from simulation cost into disk reads, and lets an interrupted build
// resume mid-dataset.
//
// Durability model: every record carries a length header and a CRC-32C,
// so a crash mid-append (torn or truncated tail) is detected and dropped
// on the next open rather than poisoning the cache; a bit-flipped payload
// is likewise skipped record-by-record. Writes go straight to the file
// descriptor (no userspace buffering), so a killed process loses at most
// the record being appended. An advisory flock(2) on a sidecar lock file
// keeps a second process from interleaving appends; compaction rewrites
// the log through a temp file + atomic rename.
//
// The store never decides anything: it only answers "has this exact
// simulation already been run, and what did it produce, bit for bit".
// In-sample semantics stay with the caller (internal/experiment).
package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"syscall"

	"repro/internal/cpu"
	"repro/internal/obs"
)

// SimVersion fingerprints the simulator + calibration behaviour. It MUST
// be bumped whenever anything that changes simulation results changes:
// the workload personalities in internal/trace/benchmarks.go, the power
// constants in internal/power/power.go, or the simulator core itself.
// Old records keyed under the previous version simply stop matching (and
// are swept out by the next compaction); nothing needs wiping by hand.
const SimVersion = 1

const (
	dataFileName = "results.log"
	lockFileName = "lock"

	// simVersionFileName is a sidecar stamp naming the SimVersion of the
	// store's latest writer. SimVersion is baked into every record key
	// (not recoverable from the records themselves), so the stamp is what
	// lets CheckDir flag, and Merge refuse, a store whose records were
	// produced under different simulator physics.
	simVersionFileName = "simversion"

	// fileHeader is the 8-byte log preamble: 4-byte magic + uint32
	// format version (little-endian). The format version covers the
	// *framing*; result-content changes are SimVersion's job.
	fileMagic     = "RSTO"
	formatVersion = 1
	headerSize    = 8

	// recHeaderSize frames every record: uint32 payload length +
	// uint32 CRC-32C of the payload, both little-endian.
	recHeaderSize = 8

	// maxPayload bounds a single record; anything larger in a length
	// field is corruption, not data.
	maxPayload = 1 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrLocked reports that another process holds the store's lock file.
var ErrLocked = errors.New("store: directory locked by another process")

// recLoc locates one live record's payload within the log.
type recLoc struct {
	off  int64  // payload offset (past the record header)
	plen int32  // payload length (key + value)
	crc  uint32 // payload CRC-32C, re-verified on every read
}

// Stats is a point-in-time snapshot of one store's activity since Open.
type Stats struct {
	Records      int    // live records in the index
	Hits         uint64 // Get calls answered from the log
	Misses       uint64 // Get calls with no (valid) record
	BytesRead    uint64 // payload bytes served by hits
	BytesWritten uint64 // payload bytes appended by puts
	Dropped      int    // corrupt or truncated records discarded
	Superseded   int    // records shadowed by a newer write of their key
	Compactions  int    // compaction passes completed
}

// FillManifest records the stats into a run manifest's timing section.
// Every field goes under timing — hit/miss counts are integers, but they
// depend on how warm the store was, and cold and warm replays of the same
// configuration must keep byte-identical deterministic sections.
// elapsedSeconds > 0 adds a storeBytesPerSec throughput figure.
func (s Stats) FillManifest(m *obs.Manifest, elapsedSeconds float64) {
	m.SetTiming("storeHits", float64(s.Hits))
	m.SetTiming("storeMisses", float64(s.Misses))
	if s.Hits+s.Misses > 0 {
		m.SetTiming("storeHitRate", float64(s.Hits)/float64(s.Hits+s.Misses))
	}
	m.SetTiming("storeRecords", float64(s.Records))
	m.SetTiming("storeBytesRead", float64(s.BytesRead))
	m.SetTiming("storeBytesWritten", float64(s.BytesWritten))
	if elapsedSeconds > 0 {
		m.SetTiming("storeBytesPerSec", float64(s.BytesRead+s.BytesWritten)/elapsedSeconds)
	}
}

// Store is the on-disk result cache. All methods are safe for concurrent
// use; the process-level single-writer guarantee comes from the lock
// file, not from Go-side synchronisation.
type Store struct {
	mu    sync.Mutex
	dir   string
	f     *os.File
	lock  *os.File
	index map[Key]recLoc
	end   int64 // append offset (start of the next record header)
	stale int64 // payload bytes of superseded/skipped records
	stats Stats
}

// Open opens (creating if needed) the store in dir, takes the advisory
// lock, rebuilds the in-memory index from the log, and — if the scan
// found corrupt or superseded records — compacts the log in place.
// A truncated or bit-flipped tail is recovered from, never fatal.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	lock, err := acquireLock(filepath.Join(dir, lockFileName))
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(filepath.Join(dir, dataFileName), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		lock.Close()
		return nil, fmt.Errorf("store: opening log: %w", err)
	}
	s := &Store{dir: dir, f: f, lock: lock, index: map[Key]recLoc{}}
	// The span carries no args: record counts differ between cold and
	// warm opens, and the span tree (and its manifest digest) must stay
	// byte-identical across replays of the same configuration. Counts are
	// available from Stats and the repro_store_* metrics instead.
	sp := obs.DefaultTracer().Start("store.open")
	defer sp.Finish()
	if err := s.scan(); err != nil {
		s.Close()
		return nil, err
	}
	if err := s.writeSimVersion(); err != nil {
		s.Close()
		return nil, err
	}
	obsOpens.Inc()
	// A dirty log (corruption survived, or keys rewritten) is rewritten
	// clean now, while no readers depend on offsets.
	if s.stats.Dropped > 0 || s.stats.Superseded > 0 {
		if err := s.compactLocked(); err != nil {
			s.Close()
			return nil, err
		}
	}
	return s, nil
}

// HeadLog returns the path of dir's append log, results.log — the one
// file Open, CheckDir and Merge read. Any other file in the directory (such as
// a snapshots.log or segment-*.log left by older builds) is ignored.
func HeadLog(dir string) string { return filepath.Join(dir, dataFileName) }

// writeSimVersion stamps the directory with this binary's SimVersion. The
// stamp always names the physics of the store's latest writer; records
// from older versions simply never match by key (their keys embed the old
// version) and are swept by the next compaction.
func (s *Store) writeSimVersion() error {
	path := filepath.Join(s.dir, simVersionFileName)
	want := []byte(strconv.Itoa(SimVersion) + "\n")
	if cur, err := os.ReadFile(path); err == nil && string(cur) == string(want) {
		return nil
	}
	if err := os.WriteFile(path, want, 0o644); err != nil {
		return fmt.Errorf("store: stamping simversion: %w", err)
	}
	return nil
}

// readSimVersion returns dir's sidecar stamp; ok is false when the file
// is missing or unparsable.
func readSimVersion(dir string) (v int, ok bool) {
	b, err := os.ReadFile(filepath.Join(dir, simVersionFileName))
	if err != nil {
		return 0, false
	}
	n, err := strconv.Atoi(string(bytes.TrimSpace(b)))
	if err != nil {
		return 0, false
	}
	return n, true
}

// acquireLock opens the sidecar lock file and takes a non-blocking
// exclusive flock on it. The kernel releases the lock when the process
// exits, so a crashed run never leaves the store wedged.
func acquireLock(path string) (*os.File, error) {
	lf, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: opening lock file: %w", err)
	}
	if err := syscall.Flock(int(lf.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		lf.Close()
		return nil, fmt.Errorf("%w: %s is held by another process — stop the other report/adaptd/adaptsim/storectl run using this store directory, or point this one at a different directory", ErrLocked, path)
	}
	return lf, nil
}

// scan validates the header and replays the log into the index. Framing
// damage (short header, implausible length, short payload) ends the log:
// everything from that offset on is dropped and the file truncated so
// appends restart from the last good record. Payload damage (CRC
// mismatch with intact framing) drops only the one record and keeps
// scanning — a mid-file bit flip costs one result, not the tail.
func (s *Store) scan() error {
	size, err := s.f.Seek(0, io.SeekEnd)
	if err != nil {
		return fmt.Errorf("store: sizing log: %w", err)
	}
	if size == 0 {
		var hdr [headerSize]byte
		copy(hdr[:4], fileMagic)
		binary.LittleEndian.PutUint32(hdr[4:], formatVersion)
		if _, err := s.f.WriteAt(hdr[:], 0); err != nil {
			return fmt.Errorf("store: writing header: %w", err)
		}
		s.end = headerSize
		s.stats.Records = len(s.index)
		return nil
	}
	var hdr [headerSize]byte
	if size < headerSize {
		// Shorter than a header: a run died inside the very first
		// write. Start the log over.
		return s.reset()
	}
	if _, err := s.f.ReadAt(hdr[:], 0); err != nil {
		return fmt.Errorf("store: reading header: %w", err)
	}
	if string(hdr[:4]) != fileMagic {
		return fmt.Errorf("store: %s is not a result store (bad magic)", filepath.Join(s.dir, dataFileName))
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != formatVersion {
		return fmt.Errorf("store: log format v%d, this binary reads v%d (wipe %s to rebuild)", v, formatVersion, s.dir)
	}

	off := int64(headerSize)
	var rh [recHeaderSize]byte
	for off < size {
		if off+recHeaderSize > size {
			return s.truncateTail(off)
		}
		if _, err := s.f.ReadAt(rh[:], off); err != nil {
			return fmt.Errorf("store: reading record header at %d: %w", off, err)
		}
		plen := int64(binary.LittleEndian.Uint32(rh[:4]))
		crc := binary.LittleEndian.Uint32(rh[4:])
		if plen < keySize || plen > maxPayload || off+recHeaderSize+plen > size {
			return s.truncateTail(off)
		}
		payload := make([]byte, plen)
		if _, err := s.f.ReadAt(payload, off+recHeaderSize); err != nil {
			return fmt.Errorf("store: reading record at %d: %w", off, err)
		}
		next := off + recHeaderSize + plen
		if crc32.Checksum(payload, castagnoli) != crc {
			// Framing is intact but the payload is damaged: drop
			// this record only and resynchronise on the next.
			s.dropRecord(plen)
			off = next
			continue
		}
		var key Key
		copy(key[:], payload[:keySize])
		if old, ok := s.index[key]; ok {
			s.stats.Superseded++
			s.stale += int64(old.plen) + recHeaderSize
		}
		s.index[key] = recLoc{off: off + recHeaderSize, plen: int32(plen), crc: crc}
		off = next
	}
	s.end = off
	s.stats.Records = len(s.index)
	return nil
}

// dropRecord accounts one discarded record.
func (s *Store) dropRecord(payloadLen int64) {
	s.stats.Dropped++
	s.stale += payloadLen + recHeaderSize
	obsCorrupt.Inc()
}

// truncateTail ends the scan at off: everything beyond it is a torn or
// corrupt tail. The file is cut back so the next append writes over it.
func (s *Store) truncateTail(off int64) error {
	s.dropRecord(0)
	if err := s.f.Truncate(off); err != nil {
		return fmt.Errorf("store: truncating torn tail at %d: %w", off, err)
	}
	s.end = off
	s.stats.Records = len(s.index)
	return nil
}

// reset rewrites an unreadably short log from scratch.
func (s *Store) reset() error {
	if err := s.f.Truncate(0); err != nil {
		return fmt.Errorf("store: resetting log: %w", err)
	}
	s.dropRecord(0)
	var hdr [headerSize]byte
	copy(hdr[:4], fileMagic)
	binary.LittleEndian.PutUint32(hdr[4:], formatVersion)
	if _, err := s.f.WriteAt(hdr[:], 0); err != nil {
		return fmt.Errorf("store: writing header: %w", err)
	}
	s.end = headerSize
	return nil
}

// Get returns the stored result for key, or (nil, false) if the store
// has no valid record for it. The payload CRC is re-verified on every
// read; a record that rotted after open is dropped and reported as a
// miss rather than returned.
func (s *Store) Get(key Key) (*cpu.Result, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	loc, ok := s.index[key]
	if !ok {
		s.miss()
		return nil, false
	}
	payload := make([]byte, loc.plen)
	if _, err := s.f.ReadAt(payload, loc.off); err != nil {
		s.evict(key, loc)
		return nil, false
	}
	if crc32.Checksum(payload, castagnoli) != loc.crc || Key(payload[:keySize]) != key {
		s.evict(key, loc)
		return nil, false
	}
	res, err := decodeResult(payload[keySize:])
	if err != nil {
		s.evict(key, loc)
		return nil, false
	}
	s.stats.Hits++
	s.stats.BytesRead += uint64(loc.plen)
	obsHits.Inc()
	obsBytesRead.Add(uint64(loc.plen))
	return res, true
}

// miss accounts one failed lookup.
func (s *Store) miss() {
	s.stats.Misses++
	obsMisses.Inc()
}

// evict removes a record that failed read-time validation and counts the
// lookup as a miss.
func (s *Store) evict(key Key, loc recLoc) {
	delete(s.index, key)
	s.stats.Records = len(s.index)
	s.dropRecord(int64(loc.plen))
	s.miss()
}

// Put appends (key, res) to the log and indexes it. A re-put of an
// existing key shadows the old record until the next compaction.
func (s *Store) Put(key Key, res *cpu.Result) error {
	return s.putValue(key, encodeResult(res))
}

// putValue appends one record holding an encoded value.
func (s *Store) putValue(key Key, value []byte) error {
	payload := make([]byte, keySize+len(value))
	copy(payload, key[:])
	copy(payload[keySize:], value)

	rec := make([]byte, recHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(rec[:4], uint32(len(payload)))
	crc := crc32.Checksum(payload, castagnoli)
	binary.LittleEndian.PutUint32(rec[4:8], crc)
	copy(rec[recHeaderSize:], payload)

	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.f.WriteAt(rec, s.end); err != nil {
		return fmt.Errorf("store: appending record: %w", err)
	}
	if old, ok := s.index[key]; ok {
		s.stats.Superseded++
		s.stale += int64(old.plen) + recHeaderSize
	}
	s.index[key] = recLoc{off: s.end + recHeaderSize, plen: int32(len(payload)), crc: crc}
	s.end += int64(len(rec))
	s.stats.Records = len(s.index)
	s.stats.BytesWritten += uint64(len(payload))
	obsBytesWritten.Add(uint64(len(payload)))
	return nil
}

// Compact rewrites the log to contain exactly the live records, in their
// original log order, via a temp file and an atomic rename. Callers
// rarely need this directly: Open compacts automatically when the scan
// found garbage or shadowed records.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.compactLocked()
}

func (s *Store) compactLocked() error {
	sp := obs.DefaultTracer().Start("store.compact").
		SetArg("records", strconv.Itoa(len(s.index)))
	defer sp.Finish()

	keys := make([]Key, 0, len(s.index))
	for k := range s.index {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		return s.index[keys[i]].off < s.index[keys[j]].off
	})

	tmp, err := os.CreateTemp(s.dir, dataFileName+".compact-*")
	if err != nil {
		return fmt.Errorf("store: compaction temp file: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after the rename succeeds

	var hdr [headerSize]byte
	copy(hdr[:4], fileMagic)
	binary.LittleEndian.PutUint32(hdr[4:], formatVersion)
	if _, err := tmp.Write(hdr[:]); err != nil {
		tmp.Close()
		return fmt.Errorf("store: compaction header: %w", err)
	}
	newIndex := make(map[Key]recLoc, len(keys))
	off := int64(headerSize)
	var rh [recHeaderSize]byte
	for _, k := range keys {
		loc := s.index[k]
		payload := make([]byte, loc.plen)
		if _, err := s.f.ReadAt(payload, loc.off); err != nil {
			tmp.Close()
			return fmt.Errorf("store: compaction read: %w", err)
		}
		if crc32.Checksum(payload, castagnoli) != loc.crc {
			// Rotted since open; drop it from the compacted log.
			s.dropRecord(int64(loc.plen))
			continue
		}
		binary.LittleEndian.PutUint32(rh[:4], uint32(loc.plen))
		binary.LittleEndian.PutUint32(rh[4:], loc.crc)
		if _, err := tmp.Write(rh[:]); err != nil {
			tmp.Close()
			return fmt.Errorf("store: compaction write: %w", err)
		}
		if _, err := tmp.Write(payload); err != nil {
			tmp.Close()
			return fmt.Errorf("store: compaction write: %w", err)
		}
		newIndex[k] = recLoc{off: off + recHeaderSize, plen: loc.plen, crc: loc.crc}
		off += recHeaderSize + int64(loc.plen)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: compaction sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: compaction close: %w", err)
	}
	path := filepath.Join(s.dir, dataFileName)
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("store: compaction rename: %w", err)
	}
	nf, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("store: reopening compacted log: %w", err)
	}
	s.f.Close()
	s.f = nf
	s.index = newIndex
	s.end = off
	s.stale = 0
	s.stats.Records = len(s.index)
	s.stats.Compactions++
	obsCompactions.Inc()
	return nil
}

// Stats returns a snapshot of this store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Len returns the number of live records.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Close syncs and closes the log and releases the advisory lock.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var firstErr error
	if s.f != nil {
		if err := s.f.Sync(); err != nil && firstErr == nil {
			firstErr = err
		}
		if err := s.f.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		s.f = nil
	}
	if s.lock != nil {
		// Closing the fd drops the flock; the lock file itself stays
		// (removing it would race a concurrent Open).
		if err := s.lock.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		s.lock = nil
	}
	return firstErr
}
