// Benchmark personality definitions: the 26 SPEC CPU 2000 programs the
// paper evaluates, each modelled as a set of kernels whose parameters
// follow the programs' published characterisations (memory-boundness,
// branch behaviour, FP/ILP character, code footprint). Phase mixtures vary
// per phase with a per-program diversity knob: programs the paper reports
// as highly phase-variable (mcf, equake, art, galgel, gap) swing widely
// between kernels; programs it reports as stable (eon, lucas) barely move.
package trace

import (
	"fmt"
	"math/rand/v2"
	"sort"
)

// PhasesPerProgram is the number of phases extracted per benchmark,
// matching the paper's SimPoint setup (10 phases x 26 programs = 260).
const PhasesPerProgram = 10

// programSpec describes one benchmark: its kernels and how much its phase
// mixtures vary.
type programSpec struct {
	kernels   []Kernel
	diversity float64 // 0..1: how far phase mixtures swing between kernels
	burst     int     // mean kernel burst length in instructions
}

// Benchmarks returns the 26 SPEC CPU 2000 benchmark names in the paper's
// suite, sorted.
func Benchmarks() []string {
	names := make([]string, 0, len(programs))
	for n := range programs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// IsBenchmark reports whether name is one of the modelled benchmarks.
func IsBenchmark(name string) bool {
	_, ok := programs[name]
	return ok
}

// Kernel archetype constructors. Each returns a kernel with the archetype's
// op mix and behaviour, scaled by the supplied working set and code
// footprint.

func kChase(name string, wsKB int) Kernel {
	return Kernel{
		Name:     name,
		Mix:      mix(4, 0.2, 0, 0, 3.4, 0.9),
		BlockLen: 6, DepDist: 3.0,
		WSKB: wsKB, Pattern: PatternChase, Stride: 8,
		CodeKB: 12, TakenBias: 0.97, Predictability: 0.85, LoopPeriod: 9,
	}
}

func kStreamFP(name string, wsKB, stride int) Kernel {
	return Kernel{
		Name:     name,
		Mix:      mix(1.2, 0.1, 3.4, 1.7, 2.6, 1.2),
		BlockLen: 18, DepDist: 22.0,
		WSKB: wsKB, Pattern: PatternStride, Stride: stride,
		CodeKB: 8, TakenBias: 0.995, Predictability: 0.98, LoopPeriod: 48,
	}
}

func kLoopFP(name string, wsKB int) Kernel {
	return Kernel{
		Name:     name,
		Mix:      mix(1.4, 0.15, 3.0, 2.1, 2.0, 0.9),
		BlockLen: 15, DepDist: 16.0,
		WSKB: wsKB, Pattern: PatternMixed, Stride: 16,
		CodeKB: 16, TakenBias: 0.99, Predictability: 0.97, LoopPeriod: 24,
	}
}

func kBranchyInt(name string, wsKB, codeKB int, pred float64) Kernel {
	return Kernel{
		Name:     name,
		Mix:      mix(4.6, 0.25, 0.05, 0, 2.4, 1.1),
		BlockLen: 6, DepDist: 5.5,
		WSKB: wsKB, Pattern: PatternRandom, Stride: 8,
		CodeKB: codeKB, TakenBias: 0.95, Predictability: pred, LoopPeriod: 7,
	}
}

func kCompress(name string, wsKB int) Kernel {
	return Kernel{
		Name:     name,
		Mix:      mix(4.2, 0.4, 0, 0, 2.6, 1.4),
		BlockLen: 8, DepDist: 4.5,
		WSKB: wsKB, Pattern: PatternMixed, Stride: 4,
		CodeKB: 10, TakenBias: 0.96, Predictability: 0.92, LoopPeriod: 12,
	}
}

func kComputeInt(name string, wsKB int) Kernel {
	return Kernel{
		Name:     name,
		Mix:      mix(5.2, 0.9, 0.1, 0, 1.6, 0.7),
		BlockLen: 10, DepDist: 9.0,
		WSKB: wsKB, Pattern: PatternStride, Stride: 8,
		CodeKB: 14, TakenBias: 0.97, Predictability: 0.95, LoopPeriod: 16,
	}
}

func kRandomFP(name string, wsKB int) Kernel {
	return Kernel{
		Name:     name,
		Mix:      mix(1.6, 0.1, 2.8, 1.5, 2.8, 1.0),
		BlockLen: 11, DepDist: 8.0,
		WSKB: wsKB, Pattern: PatternRandom, Stride: 8,
		CodeKB: 12, TakenBias: 0.97, Predictability: 0.95, LoopPeriod: 20,
	}
}

// mix builds an op-class weight vector for IntALU..Store.
func mix(ialu, imul, falu, fmul, ld, st float64) [int(Store) + 1]float64 {
	return [int(Store) + 1]float64{ialu, imul, falu, fmul, ld, st}
}

// programs is the benchmark personality table. Working sets and code
// footprints follow the programs' published memory characterisations
// (e.g. mcf/art/swim stress memory, gcc/crafty/vortex/perlbmk stress the
// I-cache, eon/mesa are cache-friendly).
var programs = map[string]programSpec{
	// --- SPECint 2000 ---
	"gzip": {
		kernels:   []Kernel{kCompress("deflate", 192), kComputeInt("crc", 64)},
		diversity: 0.45, burst: 900,
	},
	"vpr": {
		kernels:   []Kernel{kBranchyInt("route", 192, 24, 0.89), kComputeInt("place", 96)},
		diversity: 0.5, burst: 700,
	},
	"gcc": {
		kernels:   []Kernel{kBranchyInt("parse", 256, 96, 0.88), kBranchyInt("rtl", 128, 128, 0.90), kComputeInt("alloc", 96)},
		diversity: 0.6, burst: 600,
	},
	"mcf": {
		kernels:   []Kernel{kChase("simplex", 224), kChase("arcs", 96), kComputeInt("price", 48)},
		diversity: 0.9, burst: 1100,
	},
	"crafty": {
		kernels:   []Kernel{kBranchyInt("search", 384, 80, 0.92), kComputeInt("evalbits", 128)},
		diversity: 0.35, burst: 800,
	},
	"parser": {
		kernels:   []Kernel{kBranchyInt("link", 96, 40, 0.85), kChase("dict", 128)},
		diversity: 0.55, burst: 650,
	},
	"eon": {
		kernels:   []Kernel{kRandomFP("raytrace", 96), kComputeInt("shade", 64)},
		diversity: 0.12, burst: 1000,
	},
	"perlbmk": {
		kernels:   []Kernel{kBranchyInt("interp", 160, 112, 0.89), kCompress("regex", 96)},
		diversity: 0.5, burst: 700,
	},
	"gap": {
		kernels:   []Kernel{kComputeInt("grouporder", 96), kChase("bags", 192), kBranchyInt("eval", 64, 48, 0.91)},
		diversity: 0.85, burst: 900,
	},
	"vortex": {
		kernels:   []Kernel{kBranchyInt("oodb", 160, 96, 0.88), kChase("index", 144)},
		diversity: 0.55, burst: 750,
	},
	"bzip2": {
		kernels:   []Kernel{kCompress("bwt", 320), kComputeInt("huffman", 64)},
		diversity: 0.5, burst: 900,
	},
	"twolf": {
		kernels:   []Kernel{kBranchyInt("anneal", 384, 32, 0.90), kComputeInt("cost", 96)},
		diversity: 0.4, burst: 800,
	},

	// --- SPECfp 2000 ---
	"wupwise": {
		kernels:   []Kernel{kLoopFP("zgemm", 256), kStreamFP("gammul", 768, 16)},
		diversity: 0.35, burst: 1000,
	},
	"swim": {
		kernels:   []Kernel{kStreamFP("calc1", 7168, 8), kStreamFP("calc2", 7168, 8)},
		diversity: 0.3, burst: 1200,
	},
	"mgrid": {
		kernels:   []Kernel{kLoopFP("resid", 768), kStreamFP("interp", 2048, 8)},
		diversity: 0.4, burst: 1100,
	},
	"applu": {
		kernels:   []Kernel{kLoopFP("blts", 512), kLoopFP("buts", 640), kStreamFP("rhs", 1536, 8)},
		diversity: 0.45, burst: 1000,
	},
	"mesa": {
		kernels:   []Kernel{kRandomFP("rasterize", 192), kComputeInt("clip", 64)},
		diversity: 0.3, burst: 900,
	},
	"galgel": {
		kernels:   []Kernel{kStreamFP("syshtn", 2048, 8), kLoopFP("bifg", 96), kComputeInt("setup", 48)},
		diversity: 0.9, burst: 1000,
	},
	"art": {
		kernels:   []Kernel{kStreamFP("match", 320, 8), kRandomFP("f1layer", 160)},
		diversity: 0.8, burst: 1200,
	},
	"equake": {
		kernels:   []Kernel{kChase("smvp", 256), kStreamFP("time_integ", 1024, 8)},
		diversity: 0.85, burst: 1000,
	},
	"facerec": {
		kernels:   []Kernel{kLoopFP("gabor", 512), kRandomFP("graph", 192)},
		diversity: 0.45, burst: 900,
	},
	"ammp": {
		kernels:   []Kernel{kChase("mmfv", 256), kLoopFP("forces", 384)},
		diversity: 0.55, burst: 900,
	},
	"lucas": {
		kernels:   []Kernel{kStreamFP("fftsquare", 2048, 16)},
		diversity: 0.08, burst: 1400,
	},
	"fma3d": {
		kernels:   []Kernel{kLoopFP("platq", 448), kRandomFP("scatter", 256)},
		diversity: 0.4, burst: 900,
	},
	"sixtrack": {
		kernels:   []Kernel{kLoopFP("thin6d", 384), kComputeInt("track", 96)},
		diversity: 0.25, burst: 1000,
	},
	"apsi": {
		kernels:   []Kernel{kLoopFP("dctdx", 448), kStreamFP("wcont", 1024, 8), kRandomFP("setall", 128)},
		diversity: 0.5, burst: 900,
	},
}

// CheckPhase reports whether program/phase names a phase NewGenerator
// accepts, with the error NewGenerator would return, without building
// anything.
func CheckPhase(program string, phase int) error {
	if _, ok := programs[program]; !ok {
		return fmt.Errorf("trace: unknown benchmark %q (want one of %v)", program, Benchmarks())
	}
	if phase < 0 || phase >= PhasesPerProgram {
		return fmt.Errorf("trace: phase %d out of range [0,%d) for %q", phase, PhasesPerProgram, program)
	}
	return nil
}

// resolvePhase computes the phase specification (kernel weights and
// phase-scaled kernels) for program/phase. Deterministic in its arguments.
func resolvePhase(program string, phase int) (phaseSpec, error) {
	if err := CheckPhase(program, phase); err != nil {
		return phaseSpec{}, err
	}
	spec := programs[program]
	rng := rand.New(rand.NewPCG(hashString(program)^0xabcdef, uint64(phase)+101))

	n := len(spec.kernels)
	weights := make([]float64, n)
	// Base: uniform mixture. Each phase tilts towards one dominant kernel;
	// the tilt strength is the program's diversity.
	dom := phase % n
	for i := range weights {
		weights[i] = (1 - spec.diversity) / float64(n)
	}
	weights[dom] += spec.diversity
	// Small deterministic jitter so phases with the same dominant kernel
	// still differ.
	total := 0.0
	for i := range weights {
		weights[i] *= 0.85 + 0.3*rng.Float64()
		total += weights[i]
	}
	for i := range weights {
		weights[i] /= total
	}

	// Phase-level scaling of kernel working sets and branch behaviour:
	// diversity also widens how much resource demand itself moves.
	kernels := make([]Kernel, n)
	for i, k := range spec.kernels {
		scale := 1.0 + spec.diversity*(rng.Float64()*2.4-1.1)
		if scale < 0.15 {
			scale = 0.15
		}
		k.WSKB = int(float64(k.WSKB) * scale)
		if k.WSKB < 8 {
			k.WSKB = 8
		}
		// Predictability drifts a little per phase.
		k.Predictability += spec.diversity * (rng.Float64()*0.16 - 0.08)
		if k.Predictability > 0.99 {
			k.Predictability = 0.99
		}
		if k.Predictability < 0.5 {
			k.Predictability = 0.5
		}
		// ILP drifts too: some phases of a program are more serial.
		k.DepDist *= 1.0 + spec.diversity*(rng.Float64()*0.8-0.4)
		if k.DepDist < 1.2 {
			k.DepDist = 1.2
		}
		kernels[i] = k
	}
	return phaseSpec{kernels: kernels, weights: weights, burst: spec.burst}, nil
}
