// Command benchdiff is a benchstat-style before/after comparator for
// `go test -bench` output, stdlib only, for comparing one kernel at the
// parent and the child commit on the same host. Build each commit's test
// binary once and run the two alternately from the package directory:
//
//	go test -c -o /tmp/old.test ./internal/serve   # at the parent
//	go test -c -o /tmp/new.test ./internal/serve   # at the child
//	/tmp/old.test -test.run '^$' -test.bench PredictHit -test.benchmem -test.cpu 2 > old.txt
//	/tmp/new.test -test.run '^$' -test.bench PredictHit -test.benchmem -test.cpu 2 > new.txt
//	go run ./scripts/benchdiff old.txt new.txt
//
// End-to-end numbers come from perfbench/run.sh, not from here.
//
// Usage:
//
//	benchdiff [-json] old.txt new.txt   before/after comparison
//	benchdiff [-json] new.txt           just parse and report one file
//
// Lines that do not start with "Benchmark" are ignored, so raw `go test`
// output works directly. The CPU-count suffix ("-8") is stripped from
// names, letting files recorded on different GOMAXPROCS compare. Every
// line is one sample: a file holding several runs of a benchmark
// (`-count N`, or runs appended one after another) is compared on each
// metric's median over its samples, and each side's run count n is
// printed beside its values. With
// -json the comparison is emitted as a machine-readable document: per
// benchmark every metric of both sides, the speedup on the headline
// metric (ns/inst when present, ns/op otherwise), and the geometric mean
// of the speedups. Benchmarks or metrics present on only one side render
// as one-sided rows ("old only" / "new only") instead of being dropped;
// speedups and the geomean cover only the benchmarks present on both
// sides. With -threshold PCT the command exits 1 when the
// geomean speedup falls below 1-PCT/100 — a drop-in CI regression gate.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/stats"
)

// bench is one benchmark's runs in a file: how many lines it had, and the
// median of each metric over the lines that reported it.
type bench struct {
	runs    int
	metrics map[string]float64
}

// parseFile reads `go test -bench` output, collecting every line of each
// benchmark name as one sample and reducing each metric to its median.
func parseFile(path string) (map[string]bench, []string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	runs := map[string]int{}
	samples := map[string]map[string][]float64{}
	var order []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			continue
		}
		name := trimCPUSuffix(fields[0])
		if _, seen := samples[name]; !seen {
			order = append(order, name)
			samples[name] = map[string][]float64{}
		}
		runs[name]++
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			samples[name][fields[i+1]] = append(samples[name][fields[i+1]], v)
		}
	}
	out := make(map[string]bench, len(samples))
	for name, byUnit := range samples {
		b := bench{runs: runs[name], metrics: map[string]float64{}}
		for unit, xs := range byUnit {
			b.metrics[unit] = stats.Quantile(xs, 0.5)
		}
		out[name] = b
	}
	return out, order, sc.Err()
}

// trimCPUSuffix drops a trailing "-<digits>" GOMAXPROCS marker.
func trimCPUSuffix(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	for _, c := range name[i+1:] {
		if c < '0' || c > '9' {
			return name
		}
	}
	if i+1 == len(name) {
		return name
	}
	return name[:i]
}

// headline picks the metric a benchmark is judged by.
func headline(b bench) string {
	if _, ok := b.metrics["ns/inst"]; ok {
		return "ns/inst"
	}
	return "ns/op"
}

// jsonBench is one benchmark's comparison: per-metric medians of each
// side and each side's run count.
type jsonBench struct {
	Name     string             `json:"name"`
	Old      map[string]float64 `json:"old,omitempty"`
	OldN     int                `json:"old_n,omitempty"`
	New      map[string]float64 `json:"new"`
	NewN     int                `json:"new_n,omitempty"`
	Headline string             `json:"headline_metric"`
	Speedup  float64            `json:"speedup,omitempty"` // old/new on the headline metric
}

type jsonDoc struct {
	OldFile    string      `json:"old_file,omitempty"`
	NewFile    string      `json:"new_file"`
	Benchmarks []jsonBench `json:"benchmarks"`
	// GeomeanSpeedup covers the benchmarks present on both sides.
	GeomeanSpeedup float64 `json:"geomean_speedup,omitempty"`
}

func main() {
	asJSON := flag.Bool("json", false, "emit the comparison as JSON instead of a table")
	threshold := flag.Float64("threshold", 0,
		"exit 1 if the geomean speedup regresses by more than this percent (0 disables; needs old.txt)")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-json] [-threshold PCT] [old.txt] new.txt")
		flag.PrintDefaults()
	}
	flag.Parse()
	args := flag.Args()
	if len(args) < 1 || len(args) > 2 {
		flag.Usage()
		os.Exit(2)
	}
	oldPath := ""
	newPath := args[len(args)-1]
	if len(args) == 2 {
		oldPath = args[0]
	}

	oldB := map[string]bench{}
	if oldPath != "" {
		var err error
		oldB, _, err = parseFile(oldPath)
		if err != nil {
			fatal(err)
		}
	}
	newB, order, err := parseFile(newPath)
	if err != nil {
		fatal(err)
	}
	if len(newB) == 0 {
		fatal(fmt.Errorf("%s contains no benchmark lines", newPath))
	}

	doc := buildDoc(oldB, newB, order)
	doc.OldFile, doc.NewFile = oldPath, newPath

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			fatal(err)
		}
		checkThreshold(doc, *threshold)
		return
	}

	w := newTable()
	if oldPath == "" {
		w.row("benchmark", "metric", "value", "n")
		for _, jb := range doc.Benchmarks {
			for _, unit := range sortedUnits(jb.New) {
				w.row(jb.Name, unit, fmt.Sprintf("%.6g", jb.New[unit]), strconv.Itoa(jb.NewN))
			}
		}
	} else {
		w.row("benchmark", "metric", "old", "n", "new", "n", "delta")
		for _, r := range diffRows(doc) {
			w.row(r...)
		}
		if doc.GeomeanSpeedup > 0 {
			w.row("GEOMEAN", "", "", "", "", "", fmt.Sprintf("%.2fx", doc.GeomeanSpeedup))
		}
	}
	w.flush(os.Stdout)
	checkThreshold(doc, *threshold)
}

// buildDoc assembles the comparison: benchmarks in new-file order, then
// any present only in the old file (sorted) so a removed benchmark is
// still visible as a one-sided row rather than silently vanishing. The
// speedup and the geomean cover the benchmarks present on both sides.
func buildDoc(oldB, newB map[string]bench, order []string) jsonDoc {
	var doc jsonDoc
	logSum, logN := 0.0, 0
	for _, name := range order {
		nb := newB[name]
		jb := jsonBench{Name: name, New: nb.metrics, NewN: nb.runs, Headline: headline(nb)}
		if ob, ok := oldB[name]; ok {
			jb.Old, jb.OldN = ob.metrics, ob.runs
			o, n := ob.metrics[jb.Headline], nb.metrics[jb.Headline]
			if o > 0 && n > 0 {
				jb.Speedup = o / n
				logSum += math.Log(jb.Speedup)
				logN++
			}
		}
		doc.Benchmarks = append(doc.Benchmarks, jb)
	}
	var oldOnly []string
	for name := range oldB {
		if _, ok := newB[name]; !ok {
			oldOnly = append(oldOnly, name)
		}
	}
	sort.Strings(oldOnly)
	for _, name := range oldOnly {
		ob := oldB[name]
		doc.Benchmarks = append(doc.Benchmarks, jsonBench{Name: name, Old: ob.metrics, OldN: ob.runs, Headline: headline(ob)})
	}
	if logN > 0 {
		doc.GeomeanSpeedup = math.Exp(logSum / float64(logN))
	}
	return doc
}

// diffRows renders the before/after table body: per metric the old
// median and run count, the new median and run count, and the delta. A
// metric present on only one side gets a one-sided row ("-" on the
// missing side, "old only" / "new only" in the delta column) instead of
// being dropped.
func diffRows(doc jsonDoc) [][]string {
	var rows [][]string
	for _, jb := range doc.Benchmarks {
		units := map[string]bool{}
		for u := range jb.Old {
			units[u] = true
		}
		for u := range jb.New {
			units[u] = true
		}
		sorted := make([]string, 0, len(units))
		for u := range units {
			sorted = append(sorted, u)
		}
		sort.Strings(sorted)
		oldN, newN := strconv.Itoa(jb.OldN), strconv.Itoa(jb.NewN)
		for _, unit := range sorted {
			o, haveOld := jb.Old[unit]
			n, haveNew := jb.New[unit]
			switch {
			case !haveOld:
				rows = append(rows, []string{jb.Name, unit, "-", "", fmt.Sprintf("%.6g", n), newN, "new only"})
			case !haveNew:
				rows = append(rows, []string{jb.Name, unit, fmt.Sprintf("%.6g", o), oldN, "-", "", "old only"})
			default:
				delta := "~"
				if o > 0 {
					delta = fmt.Sprintf("%+.1f%%", (n-o)/o*100)
					if unit == jb.Headline && n > 0 {
						delta += fmt.Sprintf(" (%.2fx)", o/n)
					}
				}
				rows = append(rows, []string{jb.Name, unit, fmt.Sprintf("%.6g", o), oldN, fmt.Sprintf("%.6g", n), newN, delta})
			}
		}
	}
	return rows
}

// checkThreshold turns benchdiff into a CI gate: with -threshold set and a
// before/after pair compared, a geomean speedup below 1-threshold% is a
// regression and the process exits non-zero.
func checkThreshold(doc jsonDoc, pct float64) {
	if pct <= 0 || doc.OldFile == "" || doc.GeomeanSpeedup <= 0 {
		return
	}
	floor := 1 - pct/100
	if doc.GeomeanSpeedup < floor {
		fmt.Fprintf(os.Stderr,
			"benchdiff: geomean speedup %.3fx regresses more than %.1f%% (floor %.3fx)\n",
			doc.GeomeanSpeedup, pct, floor)
		os.Exit(1)
	}
}

func sortedUnits(m map[string]float64) []string {
	units := make([]string, 0, len(m))
	for u := range m {
		units = append(units, u)
	}
	sort.Strings(units)
	return units
}

// table is a minimal column-aligned writer.
type table struct{ rows [][]string }

func newTable() *table { return &table{} }

func (t *table) row(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) flush(w *os.File) {
	widths := map[int]int{}
	for _, r := range t.rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	for _, r := range t.rows {
		for i, c := range r {
			pad := widths[i] - len(c)
			fmt.Fprint(w, c, strings.Repeat(" ", pad+2))
		}
		fmt.Fprintln(w)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(1)
}
