// Command obsdiff compares two run manifests written by report or adaptd
// (-manifest). The deterministic sections must match exactly — the first
// differing field is named and the command exits 1, which is how two
// replays of the same configuration (cold and warm store, say) are shown
// to describe the same computation.
// Timing sections are informational: shared keys are printed as a
// before/after table, and wall-clock keys ("...Seconds") are summarised
// as a benchdiff-style geometric-mean speedup.
//
// Usage:
//
//	obsdiff old.json new.json
//	obsdiff -threshold 10 old.json new.json
//
// With -threshold PCT the command also exits 1 when the geomean
// wall-clock speedup falls below 1-PCT/100 — a drop-in CI regression
// gate in the spirit of scripts/benchdiff.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/obs"
)

func main() {
	threshold := flag.Float64("threshold", 0, "exit 1 when the geomean wall-clock speedup falls below 1-PCT/100 (0 disables)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: obsdiff [-threshold PCT] old.json new.json\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}

	old, err := obs.LoadManifest(flag.Arg(0))
	if err != nil {
		die(err)
	}
	new, err := obs.LoadManifest(flag.Arg(1))
	if err != nil {
		die(err)
	}

	if field := obs.DiffDeterministic(old, new); field != "" {
		fmt.Printf("DETERMINISTIC MISMATCH at %s\n", field)
		fmt.Printf("  old: %s\n", renderField(old, field))
		fmt.Printf("  new: %s\n", renderField(new, field))
		os.Exit(1)
	}
	fmt.Printf("deterministic sections match (%d fields)\n", len(old.Deterministic))

	deltas := obs.TimingDeltas(old, new)
	onlyOld, onlyNew := obs.TimingOnly(old, new)
	if len(deltas)+len(onlyOld)+len(onlyNew) > 0 {
		fmt.Printf("\n%-40s %14s %14s %9s\n", "timing", "old", "new", "delta")
		for _, d := range deltas {
			fmt.Printf("%-40s %14.6g %14.6g %+8.1f%%\n", d.Key, d.Old, d.New, pctChange(d.Old, d.New))
		}
		// One-sided keys (e.g. store composition counters a newer build
		// records and an older one predates) are shown, never gated.
		for _, k := range onlyOld {
			fmt.Printf("%-40s %14.6g %14s\n", k, old.Timing[k], "-")
		}
		for _, k := range onlyNew {
			fmt.Printf("%-40s %14s %14.6g\n", k, "-", new.Timing[k])
		}
	}
	geomean := obs.TimingGeomeanSpeedup(deltas)
	if geomean > 0 {
		fmt.Printf("\ngeomean wall-clock speedup: %.3fx\n", geomean)
	}

	if *threshold > 0 && geomean > 0 {
		floor := 1 - *threshold/100
		if geomean < floor {
			fmt.Printf("REGRESSION: geomean speedup %.3fx below threshold %.3fx\n", geomean, floor)
			os.Exit(1)
		}
		fmt.Printf("within threshold (floor %.3fx)\n", floor)
	}
}

// pctChange returns the relative change new vs old in percent, 0 when old
// is zero.
func pctChange(old, new float64) float64 {
	if old == 0 {
		return 0
	}
	return 100 * (new - old) / old
}

// renderField resolves a dotted path ("deterministic.scale.seed", "tool")
// into the value it names, for the mismatch report. Manifest keys may
// themselves contain dots ("flags.scale"), so each level consumes the
// longest prefix of the remaining path that is an existing key. Paths it
// cannot walk (array indices, missing keys) render as "<absent>".
func renderField(m *obs.Manifest, path string) string {
	if path == "tool" {
		return m.Tool
	}
	var cur any = map[string]any{"deterministic": m.Deterministic}
	for rest := path; rest != ""; {
		mp, ok := cur.(map[string]any)
		if !ok {
			return "<absent>"
		}
		key, tail, ok := longestKey(mp, rest)
		if !ok {
			return "<absent>"
		}
		cur, rest = mp[key], tail
	}
	return fmt.Sprintf("%v", cur)
}

// longestKey returns the longest dot-delimited prefix of path that is a
// key of mp, and the remainder of path after it.
func longestKey(mp map[string]any, path string) (key, rest string, ok bool) {
	for end := len(path); end > 0; end = strings.LastIndex(path[:end], ".") {
		if _, ok := mp[path[:end]]; ok {
			if end < len(path) {
				rest = path[end+1:]
			}
			return path[:end], rest, true
		}
	}
	return "", "", false
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "obsdiff:", err)
	os.Exit(1)
}
