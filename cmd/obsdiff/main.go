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
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/obs"
)

func main() {
	err := run(context.Background(), os.Args[1:], os.Stdout, os.Stderr)
	switch {
	case errors.Is(err, errUsage):
		os.Exit(2)
	case err != nil && !errors.Is(err, flag.ErrHelp):
		os.Exit(1)
	}
}

// errUsage is returned, after the usage text is printed, for a command
// line that does not name exactly two manifests.
var errUsage = errors.New("obsdiff: want two manifests")

// run is the whole command: it parses args, writes the comparison to
// stdout and returns an error when the deterministic sections differ or
// the wall clock regressed past -threshold. Errors other than those two
// verdicts, which stdout already reports, are printed to stderr. Comparing
// two files is quick, so it takes no context.
func run(_ context.Context, args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("obsdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	threshold := fs.Float64("threshold", 0, "exit 1 when the geomean wall-clock speedup falls below 1-PCT/100 (0 disables)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: obsdiff [-threshold PCT] old.json new.json\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return errUsage
	}

	old, err := obs.LoadManifest(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "obsdiff:", err)
		return err
	}
	new, err := obs.LoadManifest(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "obsdiff:", err)
		return err
	}

	if field := obs.DiffDeterministic(old, new); field != "" {
		fmt.Fprintf(stdout, "DETERMINISTIC MISMATCH at %s\n", field)
		fmt.Fprintf(stdout, "  old: %s\n", renderField(old, field))
		fmt.Fprintf(stdout, "  new: %s\n", renderField(new, field))
		return fmt.Errorf("deterministic mismatch at %s", field)
	}
	fmt.Fprintf(stdout, "deterministic sections match (%d fields)\n", len(old.Deterministic))

	deltas := obs.TimingDeltas(old, new)
	onlyOld, onlyNew := obs.TimingOnly(old, new)
	if len(deltas)+len(onlyOld)+len(onlyNew) > 0 {
		fmt.Fprintf(stdout, "\n%-40s %14s %14s %9s\n", "timing", "old", "new", "delta")
		for _, d := range deltas {
			fmt.Fprintf(stdout, "%-40s %14.6g %14.6g %+8.1f%%\n", d.Key, d.Old, d.New, pctChange(d.Old, d.New))
		}
		// One-sided keys (e.g. store composition counters a newer build
		// records and an older one predates) are shown, never gated.
		for _, k := range onlyOld {
			fmt.Fprintf(stdout, "%-40s %14.6g %14s\n", k, old.Timing[k], "-")
		}
		for _, k := range onlyNew {
			fmt.Fprintf(stdout, "%-40s %14s %14.6g\n", k, "-", new.Timing[k])
		}
	}
	geomean := obs.TimingGeomeanSpeedup(deltas)
	if geomean > 0 {
		fmt.Fprintf(stdout, "\ngeomean wall-clock speedup: %.3fx\n", geomean)
	}

	if *threshold > 0 && geomean > 0 {
		floor := 1 - *threshold/100
		if geomean < floor {
			fmt.Fprintf(stdout, "REGRESSION: geomean speedup %.3fx below threshold %.3fx\n", geomean, floor)
			return fmt.Errorf("geomean speedup %.3fx below %.3fx", geomean, floor)
		}
		fmt.Fprintf(stdout, "within threshold (floor %.3fx)\n", floor)
	}
	return nil
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
