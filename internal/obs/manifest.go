package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// Manifest is a machine-readable run record with two strictly separated
// sections. Deterministic holds everything a replay of the same
// configuration must reproduce byte-for-byte: scale, seeds, flags,
// store.SimVersion, dataset digests, span-tree digest and per-stage span
// counts. Timing holds informational wall-clock measurements (per-stage
// seconds, ns/inst, store bytes/s) that — per the CLAUDE.md telemetry
// contract — must never feed back into any decision or memoised result.
// cmd/obsdiff compares two manifests: deterministic sections must match
// exactly, timing sections get a benchdiff-style regression gate.
//
// Values that depend on result-store warm state (store hits/misses, paid
// simulation counts) belong in Timing even though they are integers:
// cold and warm replays of the same configuration must produce identical
// Deterministic sections, and warm runs pay for fewer simulations by
// design.
type Manifest struct {
	Tool          string             `json:"tool"`
	Deterministic map[string]any     `json:"deterministic"`
	Timing        map[string]float64 `json:"timing"`
}

// NewManifest returns an empty manifest for the named tool.
func NewManifest(tool string) *Manifest {
	return &Manifest{
		Tool:          tool,
		Deterministic: map[string]any{},
		Timing:        map[string]float64{},
	}
}

// SetDet records one deterministic field. The value must be a pure
// function of the run's configuration — never of wall-clock time, store
// warm state, or map iteration order.
func (m *Manifest) SetDet(key string, v any) { m.Deterministic[key] = v }

// SetTiming records one informational timing field.
func (m *Manifest) SetTiming(key string, v float64) { m.Timing[key] = v }

// WriteFile writes the manifest as indented JSON (map keys sorted by
// encoding/json, so the bytes themselves are deterministic given the
// values).
func (m *Manifest) WriteFile(path string) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("obs: encoding manifest: %w", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("obs: writing manifest: %w", err)
	}
	return nil
}

// LoadManifest reads a manifest written by WriteFile.
func LoadManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("obs: reading manifest: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("obs: parsing manifest %s: %w", path, err)
	}
	if m.Deterministic == nil {
		m.Deterministic = map[string]any{}
	}
	if m.Timing == nil {
		m.Timing = map[string]float64{}
	}
	return &m, nil
}

// DiffDeterministic compares two manifests' deterministic sections (and
// tool names) and returns the dotted path of the first differing field,
// or "" when they match. Values are normalised through a JSON round-trip
// first, so a freshly built manifest and one loaded from disk compare by
// content rather than by Go type.
func DiffDeterministic(a, b *Manifest) string {
	if a.Tool != b.Tool {
		return "tool"
	}
	av, err := normalizeJSON(a.Deterministic)
	if err != nil {
		return "deterministic"
	}
	bv, err := normalizeJSON(b.Deterministic)
	if err != nil {
		return "deterministic"
	}
	return diffValue("deterministic", av, bv)
}

// normalizeJSON round-trips v through encoding/json so every value is one
// of nil, bool, float64, string, []any or map[string]any.
func normalizeJSON(v any) (any, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	var out any
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// diffValue walks two normalised JSON values and returns the dotted path
// of the first difference (map keys in sorted order), or "".
func diffValue(path string, a, b any) string {
	switch av := a.(type) {
	case map[string]any:
		bv, ok := b.(map[string]any)
		if !ok {
			return path
		}
		keys := map[string]bool{}
		for k := range av {
			keys[k] = true
		}
		for k := range bv {
			keys[k] = true
		}
		sorted := make([]string, 0, len(keys))
		for k := range keys {
			sorted = append(sorted, k)
		}
		sort.Strings(sorted)
		for _, k := range sorted {
			sub := path + "." + k
			x, okA := av[k]
			y, okB := bv[k]
			if !okA || !okB {
				return sub
			}
			if d := diffValue(sub, x, y); d != "" {
				return d
			}
		}
		return ""
	case []any:
		bv, ok := b.([]any)
		if !ok || len(av) != len(bv) {
			return path
		}
		for i := range av {
			if d := diffValue(fmt.Sprintf("%s[%d]", path, i), av[i], bv[i]); d != "" {
				return d
			}
		}
		return ""
	default:
		if a != b {
			return path
		}
		return ""
	}
}

// TimingDelta is one timing key present in both manifests.
type TimingDelta struct {
	Key      string
	Old, New float64
}

// TimingDeltas returns the timing keys shared by both manifests in sorted
// order.
func TimingDeltas(old, new *Manifest) []TimingDelta {
	keys := make([]string, 0, len(old.Timing))
	for k := range old.Timing {
		if _, ok := new.Timing[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	out := make([]TimingDelta, 0, len(keys))
	for _, k := range keys {
		out = append(out, TimingDelta{Key: k, Old: old.Timing[k], New: new.Timing[k]})
	}
	return out
}

// TimingOnly returns the timing keys present in exactly one of the two
// manifests, each list sorted. Counters added or removed between builds
// surface here when diffing manifests from different builds, instead of
// silently vanishing from the shared-key table.
func TimingOnly(old, new *Manifest) (onlyOld, onlyNew []string) {
	for k := range old.Timing {
		if _, ok := new.Timing[k]; !ok {
			onlyOld = append(onlyOld, k)
		}
	}
	for k := range new.Timing {
		if _, ok := old.Timing[k]; !ok {
			onlyNew = append(onlyNew, k)
		}
	}
	sort.Strings(onlyOld)
	sort.Strings(onlyNew)
	return onlyOld, onlyNew
}

// TimingGeomeanSpeedup returns the geometric mean of old/new over the
// wall-clock deltas (keys with a "Seconds" suffix where both sides are
// positive) — the headline a -threshold regression gate judges, in the
// spirit of scripts/benchdiff. Returns 0 when no such key exists.
func TimingGeomeanSpeedup(deltas []TimingDelta) float64 {
	logSum, n := 0.0, 0
	for _, d := range deltas {
		if !isWallClockKey(d.Key) || d.Old <= 0 || d.New <= 0 {
			continue
		}
		logSum += math.Log(d.Old / d.New)
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

// isWallClockKey reports whether a timing key measures wall-clock seconds
// (counts and rates are informational context, not regression-gated).
func isWallClockKey(key string) bool {
	const suffix = "Seconds"
	return len(key) >= len(suffix) && key[len(key)-len(suffix):] == suffix
}
