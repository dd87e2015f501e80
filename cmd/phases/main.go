// Command phases runs the phase-analysis pipeline for one benchmark:
// it slices the program into intervals, computes basic-block vectors,
// extracts representative phases with SimPoint-style clustering, and
// reports what the online working-set-signature detector would have
// flagged — the stage-1 machinery of the paper's controller. Each
// interval's row also gives the Manhattan distance between its
// basic-block vector and the previous interval's, the signal both the
// clustering and the detector act on.
//
// Usage:
//
//	phases [-program gcc] [-intervals 4] [-interval-insts 30000]
//	       [-k 10] [-threshold 0.5]
//
// -intervals counts the intervals taken from each of the program's ten
// phases.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/phase"
	"repro/internal/trace"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		os.Exit(1)
	}
}

// run is the whole command: it parses args and writes the analysis to
// stdout. An error is printed to stderr before it is returned; a flag
// syntax error is printed by the flag set instead.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("phases", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		program   = fs.String("program", "gcc", "benchmark name")
		perPhase  = fs.Int("intervals", 4, "intervals per generator phase")
		ivInsts   = fs.Int("interval-insts", 30000, "instructions per interval")
		k         = fs.Int("k", 10, "maximum clusters (SimPoint phases)")
		threshold = fs.Float64("threshold", 0.5, "online detector threshold")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	defer func() {
		if err != nil {
			fmt.Fprintln(stderr, "phases:", err)
		}
	}()
	switch {
	case !trace.IsBenchmark(*program):
		return fmt.Errorf("unknown benchmark %q", *program)
	case *perPhase <= 0:
		return fmt.Errorf("-intervals %d: want > 0", *perPhase)
	case *ivInsts <= 0:
		return fmt.Errorf("-interval-insts %d: want > 0", *ivInsts)
	case *k <= 0:
		return fmt.Errorf("-k %d: want > 0", *k)
	}

	det, err := phase.NewDetector(1024, *threshold)
	if err != nil {
		return err
	}

	var bbvs [][]float64
	var dists []float64
	var online []bool
	var summaries []trace.Stats
	for ph := 0; ph < trace.PhasesPerProgram; ph++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		g, err := trace.NewGenerator(*program, ph)
		if err != nil {
			return err
		}
		for iv := 0; iv < *perPhase; iv++ {
			insts := g.Interval(*ivInsts)
			v := phase.BBV(insts)
			dist := 0.0
			if len(bbvs) > 0 {
				dist = phase.ManhattanDistance(v, bbvs[len(bbvs)-1])
			}
			bbvs = append(bbvs, v)
			dists = append(dists, dist)
			summaries = append(summaries, trace.Measure(insts))
			for i := range insts {
				det.Observe(insts[i])
			}
			online = append(online, det.EndInterval())
		}
	}

	ex, err := phase.Extract(bbvs, *k, 7)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "%s: %d intervals of %d instructions -> %d phases\n",
		*program, len(bbvs), *ivInsts, ex.Phases())
	fmt.Fprintln(stdout, "interval  cluster  bbv-dist  mem%  fp%  br%  data-KB  code-KB  online-change")
	for i, c := range ex.Assignments {
		mark := ""
		if online[i] {
			mark = "  <-- detector fired"
		}
		st := summaries[i]
		fmt.Fprintf(stdout, "%8d %8d %9.3f %5.0f %4.0f %4.1f %8.0f %8.0f%s\n",
			i, c, dists[i], 100*st.MemFrac, 100*st.FpFrac, 100*st.BranchDensity,
			st.DataFootprintKB, st.CodeFootprintKB, mark)
	}
	fmt.Fprintln(stdout, "\nphase  weight  representative-interval")
	for c := range ex.Representatives {
		fmt.Fprintf(stdout, "%5d  %5.1f%%  %d\n", c, 100*ex.Weights[c], ex.Representatives[c])
	}
	fmt.Fprintf(stdout, "\nonline detector: %d/%d intervals flagged as phase changes\n", det.Changes, det.Intervals)
	return nil
}
