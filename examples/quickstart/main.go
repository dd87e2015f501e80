// Quickstart: simulate one SPEC-2000-style benchmark phase on the paper's
// baseline configuration and print the performance, power and
// energy-efficiency numbers the rest of the project is built around.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/arch"
	"repro/internal/cpu"
	"repro/internal/trace"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		os.Exit(1)
	}
}

// run is the whole example. It takes no flags; an error is printed to
// stderr before it is returned.
func run(_ context.Context, args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("quickstart", flag.ContinueOnError)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return err
	}
	defer func() {
		if err != nil {
			fmt.Fprintln(stderr, "quickstart:", err)
		}
	}()

	// A deterministic instruction stream: benchmark "gzip", phase 0.
	gen, err := trace.NewGenerator("gzip", 0)
	if err != nil {
		return err
	}

	// The paper's best-overall-static machine (Table III).
	cfg := arch.Baseline()
	sim, err := cpu.New(cfg)
	if err != nil {
		return err
	}

	// Simulate 50k instructions after a 25k-instruction warmup.
	res, err := sim.Run(gen, 50_000, cpu.Options{WarmupInsts: 25_000})
	if err != nil {
		return err
	}

	fmt.Fprintln(stdout, "configuration:", cfg)
	fmt.Fprintf(stdout, "cycles:        %d\n", res.Cycles)
	fmt.Fprintf(stdout, "IPC:           %.2f\n", res.IPC)
	fmt.Fprintf(stdout, "frequency:     %.2f GHz\n", sim.Power().FrequencyHz/1e9)
	fmt.Fprintf(stdout, "power:         %.1f W\n", res.Watts)
	fmt.Fprintf(stdout, "energy:        %.2e J\n", res.EnergyJ)
	fmt.Fprintf(stdout, "branch mpki:   %.1f\n", 1000*float64(res.Mispredicts)/float64(res.Committed))
	fmt.Fprintf(stdout, "L1D miss rate: %.1f%%\n", 100*float64(res.L1DMisses)/float64(res.L1DAccesses))
	fmt.Fprintf(stdout, "efficiency:    %.3e ips^3/Watt\n", res.Efficiency)

	// Now shrink the machine and watch the trade-off move.
	lean := cfg.
		With(arch.Width, 2).
		With(arch.L2CacheKB, 256).
		With(arch.GshareSize, 1024)
	leanSim, err := cpu.New(lean)
	if err != nil {
		return err
	}
	gen2, err := trace.NewGenerator("gzip", 0)
	if err != nil {
		return err
	}
	leanRes, err := leanSim.Run(gen2, 50_000, cpu.Options{WarmupInsts: 25_000})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\nlean machine:  IPC %.2f, %.1f W, efficiency %.3e (%.2fx baseline)\n",
		leanRes.IPC, leanRes.Watts, leanRes.Efficiency, leanRes.Efficiency/res.Efficiency)
	return nil
}
