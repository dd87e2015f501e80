package power

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/arch"
)

// loopAdd is the definition repeatAdd must reproduce.
func loopAdd(x, c float64, n uint64) float64 {
	for ; n > 0; n-- {
		x += c
	}
	return x
}

func checkRepeatAdd(t *testing.T, x, c float64, n uint64) {
	t.Helper()
	got, want := repeatAdd(x, c, n), loopAdd(x, c, n)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("repeatAdd(%v, %v, %d) = %v (%#x), loop gives %v (%#x)",
			x, c, n, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

func TestRepeatAddMatchesLoopRandom(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	mag := func(lo, hi int) float64 {
		return math.Ldexp(1+rng.Float64(), lo+rng.IntN(hi-lo+1))
	}
	for i := 0; i < 3000; i++ {
		x := 0.0
		if i%4 != 0 {
			x = mag(-40, 40)
		}
		c := mag(-45, 30)
		n := uint64(rng.IntN(4000))
		if i%100 == 0 {
			n = uint64(rng.IntN(2_000_000))
		}
		checkRepeatAdd(t, x, c, n)
	}
}

func TestRepeatAddMatchesLoopAdversarial(t *testing.T) {
	const u1 = 0x1p-52 // ulp of 1.0
	cases := []struct {
		name string
		x, c float64
		n    uint64
	}{
		{"zero start", 0, 0.1, 100_000},
		{"zero start exact c", 0, 0.25, 10_000},
		{"zero steps", 3.5, 0.1, 0},
		{"one step", 3.5, 0.1, 1},
		{"tie from even, even q", 1, 2.5 * u1, 50_000},
		{"tie from even, odd q", 1, 3.5 * u1, 50_000},
		{"tie from odd, even q", 1 + u1, 2.5 * u1, 50_000},
		{"tie from odd, odd q", 1 + u1, 3.5 * u1, 50_000},
		{"half ulp from even sticks", 1, 0.5 * u1, 1000},
		{"half ulp from odd moves once", 1 + u1, 0.5 * u1, 1000},
		{"below half ulp sticks", 1e16, 0.4, 1000},
		{"just above half ulp", 1, 0.5000000001 * u1, 100_000},
		{"tie across many binades", 0x1p-20, 0x1p-70 * 3, 200_000},
		{"binade crossing each step", 1, 1, 1000},
		{"crossing mid-run", 2 - 10*u1, 0.75 * u1, 100},
		{"lands exactly on power of two", 2 - 4*u1, 2 * u1, 10},
		{"c larger than x", 1e-10, 7.25, 1000},
		{"subnormal start", 0x1p-1070, 0x1p-1060, 5000},
		{"near overflow", math.MaxFloat64 / 2, math.MaxFloat64 / 7, 20},
		{"infinite c", 1, math.Inf(1), 3},
		{"zero c", 1, 0, 5},
		{"negative zero x", math.Copysign(0, -1), 0, 5},
		{"negative c", 10, -0.3, 1000},
		{"negative x", -10, 0.3, 1000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { checkRepeatAdd(t, tc.x, tc.c, tc.n) })
	}
}

// TestRepeatAddMatchesLoopModelConstants checks the charges the simulator
// folds — the per-cycle clock charge and every single-constant structure —
// for random configurations, from zero and from a reconfiguration charge.
func TestRepeatAddMatchesLoopModelConstants(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 5))
	for i := 0; i < 40; i++ {
		m := New(arch.Random(rng))
		for _, c := range []float64{
			m.ClockPerCyc + m.IdlePerCyc, m.ROBAccess, m.LSQAccess, m.RenameOp,
			m.DCacheAccess, m.ICacheAccess, m.BpredLookup + m.BTBLookup,
		} {
			n := uint64(rng.IntN(60_000))
			checkRepeatAdd(t, 0, c, n)
			checkRepeatAdd(t, 3.25e6, c, n)
		}
	}
}

func TestAccountAddNMatchesAdds(t *testing.T) {
	var a, b Account
	a.Add(StructClock, 5e6)
	b.Add(StructClock, 5e6)
	for i := 0; i < 12345; i++ {
		a.Add(StructClock, 0.731)
	}
	b.AddN(StructClock, 0.731, 12345)
	if a != b {
		t.Fatalf("AddN account %v, Add loop %v", b.DynamicPJ, a.DynamicPJ)
	}
}
