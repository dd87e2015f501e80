// Merge/adopt: the multi-party half of the store. A fabric build (see
// internal/fabric) leaves behind many partial store directories that share
// nothing but this file format; Merge unions them into one canonical
// registry and AdoptSegment seeds one store with another's records at
// file-copy cost. Both are crash-safe via the same temp-file + atomic
// rename idiom as compaction, and both refuse to mix simulator versions.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"repro/internal/obs"
)

// MergeStats describes one Merge call.
type MergeStats struct {
	Sources    int   // source directories read
	Records    int   // live records in the merged destination
	Added      int   // records the destination did not already hold
	Dedup      int   // identical duplicates collapsed across inputs
	Superseded int   // within-directory shadowed records skipped
	Dropped    int   // corrupt or torn records skipped while reading
	Bytes      int64 // size of the merged destination log
}

// Merge unions the live records of the source store directories (and the
// destination's own, if it already holds any) into a single canonical log
// at dstDir. The rules:
//
//   - Within one directory, a key written twice resolves to the newest
//     record — the store's normal supersede semantics.
//   - Across directories, the same key must carry bit-identical payloads:
//     identical duplicates collapse into one record, divergent ones abort
//     the merge naming the key. Two stores that disagree on the same
//     simulation mean someone changed simulation physics without bumping
//     SimVersion; silently picking a winner would poison every downstream
//     figure.
//   - Every directory that holds records must carry the current
//     SimVersion stamp (the sidecar Open writes).
//   - The output is written sorted by key through a temp file + atomic
//     rename, so any source order produces the byte-identical log, and
//     the destination's old segments are removed only after the rename
//     (a crash in between leaves harmless duplicates the next Open
//     compacts away).
//
// Corrupt records in the inputs (torn tails, flipped bytes) are skipped
// exactly as Open's scan would skip them, and counted in Dropped.
func Merge(dstDir string, srcDirs ...string) (MergeStats, error) {
	var ms MergeStats
	sp := obs.DefaultTracer().Start("store.merge").
		SetArg("sources", strconv.Itoa(len(srcDirs)))
	defer sp.Finish()

	if err := os.MkdirAll(dstDir, 0o755); err != nil {
		return ms, fmt.Errorf("store: creating %s: %w", dstDir, err)
	}
	lock, err := acquireLock(filepath.Join(dstDir, lockFileName))
	if err != nil {
		return ms, err
	}
	defer lock.Close()

	union := map[Key][]byte{}
	origin := map[Key]string{}

	// The destination's own records participate like a source: they must
	// agree with everything merged over them.
	dstLive, dstStats, err := liveDirRecords(dstDir)
	if err != nil {
		return ms, err
	}
	ms.Superseded += dstStats.Superseded
	ms.Dropped += dstStats.Dropped
	if len(dstLive) > 0 {
		if err := requireSimVersion(dstDir); err != nil {
			return ms, err
		}
	}
	for k, p := range dstLive {
		union[k] = p
		origin[k] = dstDir
	}

	for _, src := range srcDirs {
		ms.Sources++
		live, st, err := func() (map[Key][]byte, liveStats, error) {
			srcLock, err := acquireLock(filepath.Join(src, lockFileName))
			if err != nil {
				return nil, liveStats{}, err
			}
			defer srcLock.Close()
			if err := requireSimVersion(src); err != nil {
				return nil, liveStats{}, err
			}
			return liveDirRecords(src)
		}()
		if err != nil {
			return ms, err
		}
		ms.Superseded += st.Superseded
		ms.Dropped += st.Dropped
		// Sorted iteration keeps Added/Dedup accounting (and the first
		// divergence named on error) independent of map order.
		for _, k := range sortedKeys(live) {
			p := live[k]
			if have, ok := union[k]; ok {
				if bytes.Equal(have, p) {
					ms.Dedup++
					continue
				}
				return ms, fmt.Errorf("store: merge conflict on key %s: %s and %s hold different results for the same simulation (SimVersion %d) — a physics change without a SimVersion bump; refusing to merge",
					hex.EncodeToString(k[:8]), origin[k], src, SimVersion)
			}
			union[k] = p
			origin[k] = src
			ms.Added++
		}
	}

	keys := sortedKeys(union)
	tmp, err := os.CreateTemp(dstDir, dataFileName+".merge-*")
	if err != nil {
		return ms, fmt.Errorf("store: merge temp file: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after the rename succeeds
	var hdr [headerSize]byte
	copy(hdr[:4], fileMagic)
	binary.LittleEndian.PutUint32(hdr[4:], formatVersion)
	if _, err := tmp.Write(hdr[:]); err != nil {
		tmp.Close()
		return ms, fmt.Errorf("store: merge header: %w", err)
	}
	size := int64(headerSize)
	var rh [recHeaderSize]byte
	for _, k := range keys {
		payload := union[k]
		binary.LittleEndian.PutUint32(rh[:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(rh[4:], crc32.Checksum(payload, castagnoli))
		if _, err := tmp.Write(rh[:]); err != nil {
			tmp.Close()
			return ms, fmt.Errorf("store: merge write: %w", err)
		}
		if _, err := tmp.Write(payload); err != nil {
			tmp.Close()
			return ms, fmt.Errorf("store: merge write: %w", err)
		}
		size += recHeaderSize + int64(len(payload))
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return ms, fmt.Errorf("store: merge sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return ms, fmt.Errorf("store: merge close: %w", err)
	}
	if err := os.Rename(tmp.Name(), HeadLog(dstDir)); err != nil {
		return ms, fmt.Errorf("store: merge rename: %w", err)
	}
	// The destination's old segments are folded into the new head now.
	if segs, err := filepath.Glob(filepath.Join(dstDir, segmentGlob)); err == nil {
		for _, p := range segs {
			os.Remove(p)
		}
	}
	want := []byte(strconv.Itoa(SimVersion) + "\n")
	if err := os.WriteFile(filepath.Join(dstDir, simVersionFileName), want, 0o644); err != nil {
		return ms, fmt.Errorf("store: stamping simversion: %w", err)
	}
	ms.Records = len(keys)
	ms.Bytes = size
	obsMerges.Inc()
	obsMergeRecords.Add(uint64(len(keys)))
	return ms, nil
}

// AdoptSegment copies the valid records of srcLog into dir as a sealed
// read-only segment named by content digest — adopting the same log twice
// lands on the same file, so re-runs are idempotent. The copy is
// sanitised (framing damage truncates, CRC-damaged records are skipped)
// and committed by temp file + atomic rename. The fabric driver uses this
// to seed a shard worker's private store with its predecessors' records
// at file-copy cost; record-level reconciliation is Merge's job.
func AdoptSegment(dir, srcLog string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("store: creating %s: %w", dir, err)
	}
	lock, err := acquireLock(filepath.Join(dir, lockFileName))
	if err != nil {
		return "", err
	}
	defer lock.Close()
	if v, ok := readSimVersion(dir); ok && v != SimVersion {
		return "", fmt.Errorf("store: %s is stamped simversion %d but this binary simulates version %d — refusing to adopt records into it", dir, v, SimVersion)
	}

	tmp, err := os.CreateTemp(dir, "segment-*.tmp")
	if err != nil {
		return "", fmt.Errorf("store: adopt temp file: %w", err)
	}
	defer os.Remove(tmp.Name())
	h := sha256.New()
	var hdr [headerSize]byte
	copy(hdr[:4], fileMagic)
	binary.LittleEndian.PutUint32(hdr[4:], formatVersion)
	if _, err := tmp.Write(hdr[:]); err != nil {
		tmp.Close()
		return "", fmt.Errorf("store: adopt header: %w", err)
	}
	var writeErr error
	var rh [recHeaderSize]byte
	scan, err := scanLogFile(srcLog, func(_ int64, _ Key, payload []byte, crc uint32) {
		if writeErr != nil {
			return
		}
		binary.LittleEndian.PutUint32(rh[:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(rh[4:], crc)
		h.Write(rh[:])
		h.Write(payload)
		if _, err := tmp.Write(rh[:]); err != nil {
			writeErr = err
			return
		}
		if _, err := tmp.Write(payload); err != nil {
			writeErr = err
		}
	})
	if err == nil && writeErr != nil {
		err = writeErr
	}
	if err == nil && scan.BadHeader {
		err = fmt.Errorf("store: %s is not a result store log", srcLog)
	}
	if err != nil {
		tmp.Close()
		return "", fmt.Errorf("store: adopting %s: %w", srcLog, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return "", fmt.Errorf("store: adopt sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return "", fmt.Errorf("store: adopt close: %w", err)
	}
	name := "segment-" + hex.EncodeToString(h.Sum(nil))[:16] + ".log"
	if err := os.Rename(tmp.Name(), filepath.Join(dir, name)); err != nil {
		return "", fmt.Errorf("store: adopt rename: %w", err)
	}
	if _, ok := readSimVersion(dir); !ok {
		want := []byte(strconv.Itoa(SimVersion) + "\n")
		if err := os.WriteFile(filepath.Join(dir, simVersionFileName), want, 0o644); err != nil {
			return "", fmt.Errorf("store: stamping simversion: %w", err)
		}
	}
	obsSegmentsAdopted.Inc()
	return name, nil
}

// requireSimVersion rejects directories whose sidecar stamp is missing or
// names a different simulator version than this binary.
func requireSimVersion(dir string) error {
	v, ok := readSimVersion(dir)
	if !ok {
		return fmt.Errorf("store: %s has no simversion stamp — open it once with the binary that wrote it (any report/adaptd run) to stamp it, then retry", dir)
	}
	if v != SimVersion {
		return fmt.Errorf("store: %s is stamped simversion %d but this binary simulates version %d — rebuild it (or merge with the matching binary) instead of mixing physics", dir, v, SimVersion)
	}
	return nil
}

// liveStats summarises a liveDirRecords pass.
type liveStats struct {
	Superseded int
	Dropped    int
	Logs       int
}

// liveDirRecords reads a directory's live records without opening it as a
// Store: sealed segments in sorted name order, then the head log, later
// records superseding earlier ones and damage skipped exactly as Open's
// scan would — but strictly read-only, nothing is repaired or truncated.
// The caller holds the directory lock.
func liveDirRecords(dir string) (map[Key][]byte, liveStats, error) {
	var st liveStats
	live := map[Key][]byte{}
	segs, err := filepath.Glob(filepath.Join(dir, segmentGlob))
	if err != nil {
		return nil, st, fmt.Errorf("store: listing segments: %w", err)
	}
	sort.Strings(segs)
	logs := segs
	head := HeadLog(dir)
	if _, err := os.Stat(head); err == nil {
		logs = append(logs, head)
	}
	for _, path := range logs {
		scan, err := scanLogFile(path, func(_ int64, key Key, payload []byte, _ uint32) {
			if _, ok := live[key]; ok {
				st.Superseded++
			}
			p := make([]byte, len(payload))
			copy(p, payload)
			live[key] = p
		})
		if err != nil {
			return nil, st, err
		}
		st.Logs++
		st.Dropped += scan.Dropped
		if scan.BadHeader {
			st.Dropped++
		}
	}
	return live, st, nil
}

// sortedKeys returns the map's keys in ascending byte order — the one
// canonical order every merge-path iteration uses, so no output or error
// ever depends on Go map iteration order.
func sortedKeys(m map[Key][]byte) []Key {
	keys := make([]Key, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		return bytes.Compare(keys[i][:], keys[j][:]) < 0
	})
	return keys
}
