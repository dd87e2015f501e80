package experiment

import (
	"context"
	"testing"

	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/trace"
)

// BenchmarkBuild times one cold dataset build without a store: every
// program, two phases each, at TestScale's interval and sample sizes (the
// build perfbench's build-mid workload times, minus the store and the warm
// replays). Pair parent and child binaries with scripts/benchdiff. The
// reported sim-insts, sim-cycles and stepped-cycles are per build and
// deterministic, so a simulator optimisation must leave them unchanged.
func BenchmarkBuild(b *testing.B) {
	sc := TestScale()
	sc.Programs = trace.Benchmarks()
	reg := obs.DefaultRegistry()
	insts := reg.Counter("repro_sim_instructions_total", "")
	cycles := reg.Counter("repro_sim_cycles_total", "")
	stepped := reg.Counter("repro_sim_stepped_cycles_total", "")
	i0, c0, s0 := insts.Value(), cycles.Value(), stepped.Value()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(context.Background(), sc); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	n := float64(b.N)
	b.ReportMetric(float64(insts.Value()-i0)/n, "sim-insts/op")
	b.ReportMetric(float64(cycles.Value()-c0)/n, "sim-cycles/op")
	b.ReportMetric(float64(stepped.Value()-s0)/n, "stepped-cycles/op")
}

// BenchmarkWarmReplay times one warm replay of BenchmarkBuild's dataset,
// the in-process twin of perfbench build-mid's warm pass: a cold build
// populates a store once, outside the timer; each iteration then opens
// the store, rebuilds the dataset from it and closes it. Pair parent and
// child binaries with scripts/benchdiff. A replay that generated a trace
// or paid a fresh simulation fails the benchmark.
func BenchmarkWarmReplay(b *testing.B) {
	sc := TestScale()
	sc.Programs = trace.Benchmarks()
	dir := b.TempDir()
	pass := func() {
		st, err := store.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Build(context.Background(), sc, WithStore(st)); err != nil {
			b.Fatal(err)
		}
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
	}
	pass()
	traces, sims := TraceCount(), obsSims.Value()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
	b.StopTimer()
	if TraceCount() != traces || obsSims.Value() != sims {
		b.Fatalf("warm replays generated %d traces and ran %d simulations, want none",
			TraceCount()-traces, obsSims.Value()-sims)
	}
}
