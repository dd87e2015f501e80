package obs

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// RollupRow is one stage of a span-tree rollup: every span whose name
// shares a first token ("search mcf/0" and "search swim/1" are both stage
// "search") aggregated into a count and self/total wall-clock time.
// Count is deterministic for a seeded run; SelfNS and TotalNS are timing
// telemetry and must never feed back into decisions or memoised results.
type RollupRow struct {
	Stage   string
	Count   int
	SelfNS  int64
	TotalNS int64
}

// stageOf maps a span name to its rollup stage: the first
// whitespace-delimited token.
func stageOf(name string) string {
	head, _, _ := strings.Cut(name, " ")
	return head
}

// Rollup aggregates the recorded spans into per-stage rows, sorted by
// stage name. Self time is a span's duration minus its direct children's;
// total time excludes spans nested under a same-stage ancestor, so a
// recursive stage ("search" containing "search mcf/0") is not counted
// twice. Unfinished spans extend to the call instant.
func (t *Tracer) Rollup() []RollupRow {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := time.Now()
	durOf := func(s *Span) time.Duration {
		if s.finished {
			return s.dur
		}
		return now.Sub(s.start)
	}
	childSum := make(map[int]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			childSum[s.parent] += durOf(s)
		}
	}
	agg := map[string]*RollupRow{}
	for _, s := range t.spans {
		stage := stageOf(s.name)
		row := agg[stage]
		if row == nil {
			row = &RollupRow{Stage: stage}
			agg[stage] = row
		}
		row.Count++
		d := durOf(s)
		if self := d - childSum[s.id]; self > 0 {
			row.SelfNS += int64(self)
		}
		nested := false
		for p := s.parent; p >= 0; p = t.spans[p].parent {
			if stageOf(t.spans[p].name) == stage {
				nested = true
				break
			}
		}
		if !nested {
			row.TotalNS += int64(d)
		}
	}
	out := make([]RollupRow, 0, len(agg))
	for _, row := range agg {
		out = append(out, *row)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Stage < out[j].Stage })
	return out
}

// RootSeconds returns the summed wall-clock duration of the root spans
// (detached spans are roots too). Every other span nests inside a root,
// and pool work overlaps, so a sum of self-times would overcount; for a
// run whose roots follow one another, this is the traced share of its
// wall clock. Unfinished spans extend to the call instant.
func (t *Tracer) RootSeconds() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := time.Now()
	var d time.Duration
	for _, s := range t.spans {
		switch {
		case s.parent >= 0:
		case s.finished:
			d += s.dur
		default:
			d += now.Sub(s.start)
		}
	}
	return d.Seconds()
}

// WriteRollup renders the rollup as an aligned text table (the
// `report -span-summary` output).
func (t *Tracer) WriteRollup(w io.Writer) {
	rows := t.Rollup()
	fmt.Fprintf(w, "%-28s %7s %12s %12s\n", "stage", "spans", "self", "total")
	for _, r := range rows {
		fmt.Fprintf(w, "%-28s %7d %12s %12s\n", r.Stage, r.Count,
			time.Duration(r.SelfNS).Round(time.Microsecond),
			time.Duration(r.TotalNS).Round(time.Microsecond))
	}
}

// FillManifest records the tracer into a manifest: the span-tree digest,
// total span count and per-stage counts go in the deterministic section
// (they are pure functions of the seeded workload); per-stage self/total
// seconds go in the timing section.
func (t *Tracer) FillManifest(m *Manifest) {
	m.SetDet("spanTreeDigest", t.TreeDigest())
	m.SetDet("spanCount", t.SpanCount())
	counts := map[string]int{}
	for _, r := range t.Rollup() {
		counts[r.Stage] = r.Count
		m.SetTiming("stage."+r.Stage+".selfSeconds", float64(r.SelfNS)/1e9)
		m.SetTiming("stage."+r.Stage+".totalSeconds", float64(r.TotalNS)/1e9)
	}
	m.SetDet("spanCounts", counts)
}

// TreeDigest returns the hex SHA-256 of the duration-free span tree
// (WriteTree's bytes): a compact fingerprint of names, args, ordering and
// hierarchy that replays of the same configuration must reproduce
// byte-for-byte. Run manifests record it in their deterministic section.
func (t *Tracer) TreeDigest() string {
	sum := sha256.Sum256([]byte(t.Tree()))
	return hex.EncodeToString(sum[:])
}
