package core

import (
	"math/rand/v2"
	"testing"

	"repro/internal/arch"
	"repro/internal/counters"
	"repro/internal/softmax"
)

// syntheticPhases draws n advanced-set training phases: feature vectors of
// 437 features with 184 nonzero (the TestScale shape), every fourth one
// holding the previous one's values in a fresh slice, and one to five
// good configurations each, a random one and its neighbours.
func syntheticPhases(n int, rng *rand.Rand) []PhaseExample {
	d := counters.Dim(counters.Advanced)
	phases := make([]PhaseExample, n)
	for i := range phases {
		x := make([]float64, d)
		if i%4 == 3 {
			copy(x, phases[i-1].Features)
		} else {
			for _, j := range rng.Perm(d)[:184] {
				x[j] = rng.Float64()
			}
		}
		good := []arch.Config{arch.Random(rng)}
		for g := rng.IntN(5); g > 0; g-- {
			good = append(good, arch.Neighbor(good[0], rng))
		}
		phases[i] = PhaseExample{Features: x, Good: good}
	}
	return phases
}

// BenchmarkTrainPredictor trains all fourteen models of an advanced
// predictor, with the harness's 150-iteration cap, at two shapes: the
// TestScale TrainAll (8 phase vectors) and one 26 x 2 LOOCV fold (50).
func BenchmarkTrainPredictor(b *testing.B) {
	for _, sh := range []struct {
		name   string
		phases int
	}{
		{"testscale-8x437", 8},
		{"fold26x2-50x437", 50},
	} {
		b.Run(sh.name, func(b *testing.B) {
			phases := syntheticPhases(sh.phases, rand.New(rand.NewPCG(59, 61)))
			opts := softmax.DefaultOptions()
			opts.MaxIter = 150
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := TrainPredictor(counters.Advanced, phases, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
