package power

import "math"

// AddN charges pj picojoules to structure s n times. The result is bit
// for bit that of n successive Add calls, but it costs one step per
// binade the account crosses instead of one per charge. Because each
// structure has its own account, a structure that only ever receives one
// constant can count its events during a run and be charged once at the
// end: the charges to other structures in between never touch it.
func (a *Account) AddN(s Structure, pj float64, n uint64) {
	a.DynamicPJ[s] = repeatAdd(a.DynamicPJ[s], pj, n)
}

// repeatAdd returns x with c added n times in float64 arithmetic, rounding
// after every addition, exactly as the loop
//
//	for i := uint64(0); i < n; i++ { x += c }
//
// would. For finite x >= 0 and finite c > 0 it runs in closed form, one
// binade of x at a time. Inside the binade [2^e, 2^(e+1)) every
// representable x is a multiple of u = ulp(x), so while the exact sum x+c
// stays below 2^(e+1) it rounds to the nearest multiple of u: x advances
// by the same step d every time. Write c = (q+f)u with integer q and
// 0 <= f < 1. Then d = qu for f < 1/2 and (q+1)u for f > 1/2. For f = 1/2
// the tie goes to the even multiple: the first addition may land on
// either, but after it x/u is even, and every later step is qu for even q
// and (q+1)u for odd q. The addition that leaves the binade, and every
// other input, is made one at a time in floating point.
func repeatAdd(x, c float64, n uint64) float64 {
	if !(c > 0) || math.IsInf(c, 0) || !(x >= 0) || math.IsInf(x, 0) {
		for ; n > 0; n-- {
			x += c
		}
		return x
	}
	const minNormal = 0x1p-1022
	for n > 0 {
		if x < minNormal {
			x += c
			n--
			continue
		}
		_, exp := math.Frexp(x)    // 2^(exp-1) <= x < 2^exp
		top := math.Ldexp(1, exp)  // the binade's upper end
		u := math.Ldexp(1, exp-53) // the ulp of every x in the binade
		if c >= top-x {
			// The first addition already leaves the binade.
			x += c
			n--
			continue
		}
		// c < top-x <= 2^(exp-1), so c/u < 2^52 and is exact.
		cu := c / u
		q := math.Floor(cu)
		f := cu - q
		X := uint64(x / u) // 2^52 <= X < 2^53
		Q := uint64(q)
		var D uint64
		switch {
		case f < 0.5:
			D = Q
		case f > 0.5:
			D = Q + 1
		case X&1 == 1:
			// A tie from an odd multiple: step once to reach an even one.
			x += c
			n--
			continue
		default:
			D = Q + Q&1
		}
		if D == 0 {
			return x // c is below half an ulp: x never moves again
		}
		// The sum stays inside the binade while X + jD + Q < 2^53 (see
		// above), which holds for j < (2^53 - Q - X + D - 1) / D steps.
		const T = uint64(1) << 53
		if X+Q >= T {
			x += c
			n--
			continue
		}
		steps := (T - Q - X + D - 1) / D
		if steps > n {
			steps = n
		}
		x = float64(X+steps*D) * u
		n -= steps
		if n > 0 {
			x += c
			n--
		}
	}
	return x
}
