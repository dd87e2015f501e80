package cpu

import (
	"math/rand/v2"
	"testing"

	"repro/internal/arch"
	"repro/internal/trace"
)

// benchTrace caches one interval per workload so benchmark iterations pay
// for simulation, not trace generation.
func benchTrace(b *testing.B, program string, phase, n int) []trace.Inst {
	b.Helper()
	g, err := trace.NewGenerator(program, phase)
	if err != nil {
		b.Fatal(err)
	}
	return g.Interval(n)
}

// benchSim times Sim.Run end to end and reports ns per simulated
// instruction — the sim-core throughput kernel. perfbench/run.sh's
// build-mid workload is the end-to-end number it must move.
func benchSim(b *testing.B, program string, cfg arch.Config, opts Options) {
	const n = 8000
	insts := benchTrace(b, program, 0, n)
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	src := NewSliceSource(insts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Reset()
		if _, err := s.Run(src, n, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/inst")
}

// BenchmarkSimRun is the canonical sim-core throughput benchmark:
// measurement-mode runs (no counter collection) across the behaviours that
// dominate dataset construction.
func BenchmarkSimRun(b *testing.B) {
	b.Run("baseline/gzip", func(b *testing.B) {
		benchSim(b, "gzip", arch.Baseline(), Options{})
	})
	b.Run("baseline/mcf-membound", func(b *testing.B) {
		benchSim(b, "mcf", arch.Baseline(), Options{})
	})
	b.Run("baseline/parser-branchy", func(b *testing.B) {
		benchSim(b, "parser", arch.Baseline(), Options{})
	})
	b.Run("min/swim", func(b *testing.B) {
		benchSim(b, "swim", arch.MinConfig(), Options{})
	})
	b.Run("profiling/applu", func(b *testing.B) {
		benchSim(b, "applu", arch.Profiling(), Options{})
	})
	b.Run("build-shape", benchBuildShape)
}

// benchBuildShape times the dataset build's run shape: a fresh Sim per
// simulation (New, a 2,500-instruction Run after a 1,200-instruction
// warmup, Release) over a fixed seeded mix of random configurations and
// workloads. Profiling runs (the Profiling configuration, collecting with
// 16 sampled sets) are spread evenly through the sequence at the ratio a
// 26 x 2 TestScale build runs them, 52 of 772, so the kernel pays the
// collector cost the build pays. Unlike the sub-benchmarks above, which
// reuse one Sim, it pays for arena recycling across changing ROB and
// cache sizes.
func benchBuildShape(b *testing.B) {
	const n, warm, mix = 2500, 1200, 32
	const profRuns, allRuns = 52, 772
	progs := []string{"mcf", "art", "gzip", "swim", "parser", "equake", "vortex", "applu"}
	rng := rand.New(rand.NewPCG(0xb0d, 0x5ba9e))
	cfgs := make([]arch.Config, mix)
	traces := make([][]trace.Inst, mix)
	for i := range cfgs {
		cfgs[i] = arch.Random(rng)
		traces[i] = benchTrace(b, progs[i%len(progs)], i%trace.PhasesPerProgram, n)
	}
	measure := Options{WarmupInsts: warm}
	profile := Options{WarmupInsts: warm, Collect: true, SampledSets: 16}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % mix
		cfg, opts := cfgs[k], measure
		if (i+1)*profRuns/allRuns > i*profRuns/allRuns {
			cfg, opts = arch.Profiling(), profile
		}
		s, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Run(NewSliceSource(traces[k]), n, opts); err != nil {
			b.Fatal(err)
		}
		s.Release()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/inst")
}

// BenchmarkSimRunCollect times a profiling-configuration run with counter
// collection (the per-phase profiling stage of dataset construction).
func BenchmarkSimRunCollect(b *testing.B) {
	benchSim(b, "vortex", arch.Profiling(), Options{Collect: true, SampledSets: 32})
}
