// Merge: union store directories built apart (on different hosts, or
// by runs that did not share a -cache-dir) into one canonical head log.
// Crash-safe via the same temp-file + atomic rename idiom as compaction,
// and it refuses to mix simulator versions.
package store

import (
	"bytes"
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
	Dropped    int   // CRC-damaged records skipped while reading
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
//     rename, so any source order produces the byte-identical log.
//
// Only head logs are read; other files in the directories are neither
// merged nor touched. Corrupt records in the inputs (torn tails, flipped
// bytes) are skipped exactly as Open skips them, and
// CRC-damaged ones are counted in Dropped. A head log whose header is
// unreadable (wrong magic, another format version) aborts the merge
// before anything is written, whether it is a source's or the
// destination's; an empty or shorter-than-header log, which Open would
// restart, merges as empty.
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
	dstLive, err := liveHeadRecords(dstDir, &ms)
	if err != nil {
		return ms, err
	}
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
		live, err := func() (map[Key][]byte, error) {
			srcLock, err := acquireLock(filepath.Join(src, lockFileName))
			if err != nil {
				return nil, err
			}
			defer srcLock.Close()
			if err := requireSimVersion(src); err != nil {
				return nil, err
			}
			return liveHeadRecords(src, &ms)
		}()
		if err != nil {
			return ms, err
		}
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
	buf := logHeader()
	for _, k := range keys {
		payload := union[k]
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
		buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, castagnoli))
		buf = append(buf, payload...)
	}
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		return ms, fmt.Errorf("store: merge write: %w", err)
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
	want := []byte(strconv.Itoa(SimVersion) + "\n")
	if err := os.WriteFile(filepath.Join(dstDir, simVersionFileName), want, 0o644); err != nil {
		return ms, fmt.Errorf("store: stamping simversion: %w", err)
	}
	ms.Records = len(keys)
	ms.Bytes = int64(len(buf))
	obsMerges.Inc()
	obsMergeRecords.Add(uint64(len(keys)))
	return ms, nil
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

// liveHeadRecords reads a directory's live head-log records without
// opening it as a Store: later records supersede earlier ones and damage
// is skipped exactly as Open would skip it — but strictly read-only,
// nothing is repaired or truncated. A directory without a head log, or
// with one shorter than the log header, holds no records; a log whose
// header is present but unreadable is an error, the same fault CheckDir
// reports. The payloads are subslices of the log image. Superseded and
// dropped counts accumulate into ms. The caller holds the directory lock.
func liveHeadRecords(dir string, ms *MergeStats) (map[Key][]byte, error) {
	live := map[Key][]byte{}
	log, ok, err := readHeadLog(dir)
	if err != nil {
		return nil, err
	}
	if !ok || len(log) < headerSize {
		return live, nil
	}
	if f := headerFault(HeadLog(dir), log); f != "" {
		return nil, fmt.Errorf("store: %s; refusing to merge", f)
	}
	walkFrames(log, func(fr frame, crcOK bool) {
		if !crcOK {
			ms.Dropped++
			return
		}
		key := Key(fr.payload[:keySize])
		if _, ok := live[key]; ok {
			ms.Superseded++
		}
		live[key] = fr.payload
	})
	return live, nil
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
