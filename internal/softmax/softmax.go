// Package softmax implements the paper's predictive model: a multinomial
// logistic regression (soft-max) classifier per microarchitectural
// parameter, trained off-line by regularised maximum likelihood with
// conjugate-gradient optimisation (Section IV).
//
// The model is deliberately generic — D input features, K classes — so the
// same code trains all fourteen per-parameter models. Prediction follows
// the paper's equation (8)-(9): a hard argmax over the linear scores,
// avoiding exponentiation at runtime, which is what makes the hardware
// implementation (a multiclass perceptron, §VIII) cheap.
//
// Training is exact in a smaller space. The weights start at InitWeight
// everywhere and every gradient is X^T C + 2 lambda W, so every iterate's
// class columns lie in span{1_D, x_1 ... x_G}, the all-ones direction plus
// the G distinct training vectors. A TrainingSet builds an orthonormal
// basis of that span (G+1 rows at most, against D features) once, and
// every model trained from it runs its conjugate-gradient loop on the
// coordinates of W in that basis and lifts the result back to D x K once.
// An orthonormal change of coordinates preserves every score, norm and
// dot product the loop reads, so the trajectory is the D-space one up to
// float rounding.
package softmax

import (
	"fmt"
	"math"
)

// Options control training.
type Options struct {
	// Lambda is the weight-norm regularisation strength; the paper uses
	// 0.5.
	Lambda float64
	// InitWeight is the deterministic initial value of every weight; the
	// paper uses 1.
	InitWeight float64
	// MaxIter bounds conjugate-gradient iterations.
	MaxIter int
	// Tol stops training when the gradient norm falls below it.
	Tol float64
}

// DefaultOptions returns the paper's training settings.
func DefaultOptions() Options {
	return Options{Lambda: 0.5, InitWeight: 1, MaxIter: 200, Tol: 1e-5}
}

// Model is a trained soft-max classifier: a D x K weight matrix, stored
// row-major by feature (W[i*K+k] is feature i's weight for class k).
type Model struct {
	D, K int
	W    []float64
	// Stats is the convergence record of the Train run that produced W;
	// zero for models built by NewModel or loaded from disk.
	Stats TrainStats
}

// NewModel returns an untrained model with all weights set to init.
func NewModel(d, k int, init float64) (*Model, error) {
	if d <= 0 || k <= 0 {
		return nil, fmt.Errorf("softmax: invalid shape D=%d K=%d", d, k)
	}
	m := &Model{D: d, K: k, W: make([]float64, d*k)}
	for i := range m.W {
		m.W[i] = init
	}
	return m, nil
}

// Scores computes the K linear scores w_k . x into out (reused if its
// capacity allows): the batch of one vector.
func (m *Model) Scores(x []float64, out []float64) []float64 {
	return m.ScoresBatch([][]float64{x}, out)
}

// ScoresBatch computes the linear scores of n feature vectors in a single
// pass over the weight matrix: out is (or becomes) an n x K row-major
// matrix, row i holding the scores of xs[i]. The weight row for feature i
// is loaded once and applied to every vector while it is hot, which is
// what makes batched serving cheaper than n Scores calls. Each vector's
// scores accumulate over features in the same order whatever the batch,
// so batched scores are bit-identical to the per-vector ones.
func (m *Model) ScoresBatch(xs [][]float64, out []float64) []float64 {
	need := len(xs) * m.K
	if cap(out) < need {
		out = make([]float64, need)
	}
	out = out[:need]
	for i := range out {
		out[i] = 0
	}
	for i := 0; i < m.D; i++ {
		row := m.W[i*m.K : i*m.K+m.K]
		for n, x := range xs {
			xi := x[i]
			if xi == 0 {
				continue
			}
			dst := out[n*m.K : n*m.K+m.K]
			for k, w := range row {
				dst[k] += w * xi
			}
		}
	}
	return out
}

// Predict returns the argmax class for x (paper eq. 8-9: the hard decision
// needs no exponentiation).
func (m *Model) Predict(x []float64) int {
	if len(x) != m.D {
		panic(fmt.Sprintf("softmax: feature length %d, model expects %d", len(x), m.D))
	}
	return argmax(m.Scores(x, nil))
}

// argmax returns the index of the first largest score.
func argmax(s []float64) int {
	best, bi := math.Inf(-1), 0
	for k, v := range s {
		if v > best {
			best, bi = v, k
		}
	}
	return bi
}

// SoftmaxInPlace normalises a score vector into the soft-max distribution
// it implies, in place. Both Probabilities methods and the batched serving
// path funnel through it so their float operations (and therefore their
// serialized output) are identical.
func SoftmaxInPlace(s []float64) {
	maxS := math.Inf(-1)
	for _, v := range s {
		if v > maxS {
			maxS = v
		}
	}
	total := 0.0
	for k, v := range s {
		s[k] = math.Exp(v - maxS)
		total += s[k]
	}
	for k := range s {
		s[k] /= total
	}
}

// Probabilities returns the full soft-max distribution for x.
func (m *Model) Probabilities(x []float64) []float64 {
	s := m.Scores(x, nil)
	SoftmaxInPlace(s)
	return s
}

// TrainStats records how a training run converged. Every field is a pure
// function of the training set, labels and options, so it is safe to pin
// and diff.
type TrainStats struct {
	// Iters counts conjugate-gradient iterations that accepted a step.
	Iters int
	// Evals counts line-search objective evaluations.
	Evals int
	// Objective is the final regularised negative log-likelihood.
	Objective float64
	// GradNorm is the final gradient norm.
	GradNorm float64
}

// TrainingSet holds the feature vectors of a training set, grouped and
// projected once for any number of models: the paper's fourteen
// per-parameter models see the same phase vectors and differ only in their
// labels. It is never modified after NewTrainingSet returns, so models may
// be trained from it in any order.
type TrainingSet struct {
	d, n   int
	q      []float64 // Q, r x d row-major
	groups []group
}

// group is a run of consecutive training vectors with equal values.
type group struct {
	x   []float64 // the shared vector; its basis coordinates z_g once projected
	nz  []int     // indices of x's nonzero entries
	end int       // one past the run's last vector
}

// NewTrainingSet validates n feature vectors of dimension d, merges each
// run of consecutive equal vectors into one group, and projects the groups
// onto an orthonormal basis Q (r x d, r <= G+1 for G groups) of
// span{1_d, x_g}, which holds every iterate (see the package comment). It
// keeps no reference to xs.
func NewTrainingSet(d int, xs [][]float64) (*TrainingSet, error) {
	if d <= 0 || len(xs) == 0 {
		return nil, fmt.Errorf("softmax: %d training vectors of dimension %d", len(xs), d)
	}
	for i, x := range xs {
		if len(x) != d {
			return nil, fmt.Errorf("softmax: vector %d has %d features, want %d", i, len(x), d)
		}
	}
	s := grouped(d, xs)
	s.project()
	return s, nil
}

// grouped merges consecutive vectors whose values are equal (the same
// slice, usually) into groups, in D-space coordinates.
func grouped(d int, xs [][]float64) *TrainingSet {
	s := &TrainingSet{d: d, n: len(xs)}
	for i, x := range xs {
		if n := len(s.groups); n > 0 && sameVector(s.groups[n-1].x, x) {
			s.groups[n-1].end = i + 1
			continue
		}
		g := group{x: x, end: i + 1}
		for j, xj := range x {
			if xj != 0 {
				g.nz = append(g.nz, j)
			}
		}
		s.groups = append(s.groups, g)
	}
	return s
}

// sameVector reports whether a and b hold the same values. Identity is
// checked first because callers usually pass one slice per phase.
func sameVector(a, b []float64) bool {
	if len(a) == 0 || &a[0] == &b[0] {
		return true
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// project builds the basis Q of span{1_d, x_g} over the set's groups and
// replaces every group's vector by its coordinates z_g = Q x_g.
func (s *TrainingSet) project() {
	d := s.d
	ones := make([]float64, d)
	for i := range ones {
		ones[i] = 1
	}
	xs := [][]float64{ones}
	for _, g := range s.groups {
		xs = append(xs, g.x)
	}
	s.q = basis(d, xs)
	r := len(s.q) / d
	for gi := range s.groups {
		g := &s.groups[gi]
		z := make([]float64, r)
		for j := range z {
			row := s.q[j*d : j*d+d]
			for _, i := range g.nz {
				z[j] += row[i] * g.x[i]
			}
		}
		g.x, g.nz = z, nil
		for j, zj := range z {
			if zj != 0 {
				g.nz = append(g.nz, j)
			}
		}
	}
}

// basis returns an orthonormal basis of span{xs} as an r x d row-major
// matrix, by modified Gram-Schmidt with one re-orthogonalisation pass in
// the order given. A vector whose residual is at most 1e-12 of its norm
// (an all-zero one included) adds no row.
func basis(d int, xs [][]float64) []float64 {
	q := make([]float64, 0, min(len(xs), d)*d)
	v := make([]float64, d)
	for _, x := range xs {
		copy(v, x)
		for pass := 0; pass < 2; pass++ {
			for j := 0; j < len(q); j += d {
				row := q[j : j+d]
				c := dot(row, v)
				for i, qi := range row {
					v[i] -= c * qi
				}
			}
		}
		rn := math.Sqrt(dot(v, v))
		if rn <= 1e-12*math.Sqrt(dot(x, x)) {
			continue
		}
		for _, vi := range v {
			q = append(q, vi/rn)
		}
	}
	return q
}

// Train fits a K-class model by maximising the regularised data
// log-likelihood (paper eq. 6-7) with Polak-Ribiere conjugate gradients
// and a backtracking line search. labels[i] holds the good classes of
// vector i, each one example (the paper's Ñ over within-5%-of-best
// configurations); every vector needs at least one. Training is
// deterministic, the model's Stats record its convergence, and Train
// writes neither the set nor the labels.
//
// Each group is one term of the likelihood, weighted by its per-class label
// counts, so scores are computed once per group. Scores are linear in the
// weights, so the line search evaluates every trial step in score space.
// The loop updates V = Q W and lifts W = Q^T V once at the end: only float
// rounding differs from running on all D x K weights, and an iteration
// costs O(G r K) instead of O(G nnz K + D K).
func (s *TrainingSet) Train(k int, labels [][]int, opts Options) (*Model, error) {
	d := s.d
	m, err := NewModel(d, k, 0)
	if err != nil {
		return nil, err
	}
	pr, err := s.problem(k, opts.Lambda, labels)
	if err != nil {
		return nil, err
	}
	// V0 = InitWeight (Q 1_D) 1_K^T.
	r := len(s.q) / d
	v := make([]float64, r*k)
	for j := 0; j < r; j++ {
		v0 := 0.0
		for _, qi := range s.q[j*d : j*d+d] {
			v0 += qi
		}
		v0 *= opts.InitWeight
		for c := 0; c < k; c++ {
			v[j*k+c] = v0
		}
	}
	m.Stats = pr.minimize(v, opts)
	for j := 0; j < r; j++ {
		vj := v[j*k : j*k+k]
		for i, qi := range s.q[j*d : j*d+d] {
			row := m.W[i*k : i*k+k]
			for c, vc := range vj {
				row[c] += qi * vc
			}
		}
	}
	return m, nil
}

// minimize runs the conjugate-gradient loop on the problem from w, which
// it updates in place, and returns the convergence record.
func (pr *problem) minimize(w []float64, opts Options) TrainStats {
	if opts.MaxIter <= 0 {
		opts.MaxIter = 200
	}
	if opts.Tol <= 0 {
		opts.Tol = 1e-5
	}
	n := len(w)
	grad := make([]float64, n)
	prevGrad := make([]float64, n)
	dir := make([]float64, n)

	f := pr.objGrad(w, grad)
	for i := range dir {
		dir[i] = -grad[i]
	}
	gg := dot(grad, grad)
	examples := 0.0
	for _, t := range pr.totals {
		examples += t
	}
	alpha := 1.0 / (1 + examples)
	var st TrainStats

	for it := 0; it < opts.MaxIter; it++ {
		if math.Sqrt(gg) < opts.Tol {
			break
		}
		// Ensure a descent direction; restart on failure.
		slope := dot(grad, dir)
		if slope >= 0 {
			for i := range dir {
				dir[i] = -grad[i]
			}
			slope = dot(grad, dir)
		}
		// Backtracking line search (Armijo), in score space.
		pr.line(w, dir)
		step := alpha * 4
		accepted := false
		for ls := 0; ls < 40; ls++ {
			st.Evals++
			if pr.lineValue(step) <= f+1e-4*step*slope {
				accepted = true
				break
			}
			step *= 0.5
		}
		if !accepted {
			break // no further progress possible along any tried step
		}
		st.Iters++
		alpha = step
		for i := range w {
			w[i] += step * dir[i]
		}
		grad, prevGrad = prevGrad, grad
		f = pr.objGrad(w, grad)

		// Polak-Ribiere beta with automatic restart; gg is the new
		// gradient's squared norm for the next stopping check.
		num, den := 0.0, 0.0
		gg = 0
		for i, g := range grad {
			pg := prevGrad[i]
			num += g * (g - pg)
			den += pg * pg
			gg += g * g
		}
		beta := 0.0
		if den > 0 {
			beta = num / den
		}
		if beta < 0 {
			beta = 0
		}
		for i := range dir {
			dir[i] = -grad[i] + beta*dir[i]
		}
	}
	st.Objective = f
	st.GradNorm = math.Sqrt(gg)
	return st
}

// problem is one model's regularised objective f = -L + lambda*||W||^2
// over a training set's groups, plus the line-search state along one
// direction. The groups are the set's, shared and read-only; everything
// else belongs to the one solve.
type problem struct {
	k      int
	lambda float64
	groups []group
	// counts holds each group's K per-class label counts and totals its
	// example count.
	counts, totals []float64
	// s0 and sd hold each group's K scores at W and along the direction;
	// wd and dd are W.dir and dir.dir, and reg is lambda*||W||^2.
	s0, sd  []float64
	reg     float64
	wd, dd  float64
	scratch []float64
}

// problem validates one K-class model's labels and counts them per group.
func (s *TrainingSet) problem(k int, lambda float64, labels [][]int) (*problem, error) {
	if len(labels) != s.n {
		return nil, fmt.Errorf("softmax: %d label lists for %d vectors", len(labels), s.n)
	}
	ng := len(s.groups)
	pr := &problem{
		k: k, lambda: lambda, groups: s.groups,
		counts: make([]float64, ng*k), totals: make([]float64, ng),
		s0: make([]float64, ng*k), sd: make([]float64, ng*k),
		scratch: make([]float64, k),
	}
	i := 0
	for gi, g := range s.groups {
		for ; i < g.end; i++ {
			if len(labels[i]) == 0 {
				return nil, fmt.Errorf("softmax: vector %d has no labels", i)
			}
			for _, y := range labels[i] {
				if y < 0 || y >= k {
					return nil, fmt.Errorf("softmax: vector %d label %d out of range [0,%d)", i, y, k)
				}
				pr.counts[gi*k+y]++
			}
			pr.totals[gi] += float64(len(labels[i]))
		}
	}
	return pr, nil
}

// scores writes the group's K scores under weights w into out.
func (pr *problem) scores(g *group, w, out []float64) {
	k := pr.k
	for c := range out {
		out[c] = 0
	}
	for _, i := range g.nz {
		xi := g.x[i]
		for c, wc := range w[i*k : i*k+k] {
			out[c] += wc * xi
		}
	}
}

// nll returns the negative log-likelihood of per-class label counts at
// scores s, and the log-partition logZ.
func nll(s, counts []float64) (f, logZ float64) {
	maxS := math.Inf(-1)
	for _, v := range s {
		if v > maxS {
			maxS = v
		}
	}
	for _, v := range s {
		logZ += math.Exp(v - maxS)
	}
	logZ = math.Log(logZ) + maxS
	for c, n := range counts {
		if n != 0 {
			f -= n * (s[c] - logZ)
		}
	}
	return f, logZ
}

// objGrad returns the objective at w and writes its gradient into grad,
// scoring each group once and leaving the scores in s0 for the line
// search. The likelihood gradient of a group is (total*sigma_k -
// count_k) * x, accumulated row by row over the nonzero features only.
func (pr *problem) objGrad(w, grad []float64) float64 {
	k := pr.k
	for i := range grad {
		grad[i] = 0
	}
	coeff := pr.scratch
	f := 0.0
	for gi := range pr.groups {
		g := &pr.groups[gi]
		s := pr.s0[gi*k : gi*k+k]
		counts := pr.counts[gi*k : gi*k+k]
		pr.scores(g, w, s)
		gf, logZ := nll(s, counts)
		f += gf
		for c, v := range s {
			coeff[c] = pr.totals[gi]*math.Exp(v-logZ) - counts[c]
		}
		for _, i := range g.nz {
			xi := g.x[i]
			row := grad[i*k : i*k+k]
			for c, cc := range coeff {
				row[c] += cc * xi
			}
		}
	}
	pr.reg = 0
	for i, wi := range w {
		pr.reg += pr.lambda * wi * wi
		grad[i] += 2 * pr.lambda * wi
	}
	return f + pr.reg
}

// line prepares lineValue along dir from w. It relies on s0 holding the
// scores at w, as the last objGrad call left them.
func (pr *problem) line(w, dir []float64) {
	k := pr.k
	for gi := range pr.groups {
		pr.scores(&pr.groups[gi], dir, pr.sd[gi*k:gi*k+k])
	}
	pr.wd, pr.dd = 0, 0
	for i, di := range dir {
		pr.wd += w[i] * di
		pr.dd += di * di
	}
}

// lineValue returns the objective at w + t*dir in O(groups*K): the scores
// there are s0 + t*sd, and the regulariser expands to
// lambda*(||W||^2 + 2t W.dir + t^2 ||dir||^2).
func (pr *problem) lineValue(t float64) float64 {
	k := pr.k
	s := pr.scratch
	f := 0.0
	for gi := range pr.groups {
		s0, sd := pr.s0[gi*k:gi*k+k], pr.sd[gi*k:gi*k+k]
		for c := range s {
			s[c] = s0[c] + t*sd[c]
		}
		gf, _ := nll(s, pr.counts[gi*k:gi*k+k])
		f += gf
	}
	return f + pr.reg + pr.lambda*(2*t*pr.wd+t*t*pr.dd)
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Quantized is the 8-bit fixed-point form of a model, matching the
// perceptron-style hardware implementation the paper sketches in §VIII
// (signed 8-bit weights, ~2KB storage for the basic counter set).
type Quantized struct {
	D, K  int
	Scale float64 // weight = Scale * int8 value
	W     []int8
}

// Quantize converts the model to 8-bit weights with a single shared scale.
func (m *Model) Quantize() *Quantized {
	maxAbs := 0.0
	for _, w := range m.W {
		if a := math.Abs(w); a > maxAbs {
			maxAbs = a
		}
	}
	q := &Quantized{D: m.D, K: m.K, W: make([]int8, len(m.W))}
	if maxAbs == 0 {
		q.Scale = 1
		return q
	}
	q.Scale = maxAbs / 127
	for i, w := range m.W {
		v := math.Round(w / q.Scale)
		if v > 127 {
			v = 127
		}
		if v < -127 {
			v = -127
		}
		q.W[i] = int8(v)
	}
	return q
}

// Scores computes the K linear scores in float weight units (the integer
// accumulator times Scale) into out (reused if its capacity allows): the
// batch of one vector. Scaling does not change the argmax but makes the
// scores comparable to the float model's, so the soft-max distribution
// over them is meaningful.
func (q *Quantized) Scores(x []float64, out []float64) []float64 {
	return q.ScoresBatch([][]float64{x}, out)
}

// ScoresBatch is the 8-bit counterpart of Model.ScoresBatch: one pass over
// the int8 weight matrix scoring every vector, then the trailing Scale
// multiply.
func (q *Quantized) ScoresBatch(xs [][]float64, out []float64) []float64 {
	need := len(xs) * q.K
	if cap(out) < need {
		out = make([]float64, need)
	}
	out = out[:need]
	for i := range out {
		out[i] = 0
	}
	for i := 0; i < q.D; i++ {
		row := q.W[i*q.K : i*q.K+q.K]
		for n, x := range xs {
			xi := x[i]
			if xi == 0 {
				continue
			}
			dst := out[n*q.K : n*q.K+q.K]
			for k, w := range row {
				dst[k] += float64(w) * xi
			}
		}
	}
	for i := range out {
		out[i] *= q.Scale
	}
	return out
}

// Predict returns the argmax class using the quantised weights.
func (q *Quantized) Predict(x []float64) int {
	return argmax(q.Scores(x, nil))
}

// Probabilities returns the soft-max distribution implied by the quantised
// scores — the serving path's confidence estimate for 8-bit deployments.
func (q *Quantized) Probabilities(x []float64) []float64 {
	s := q.Scores(x, nil)
	SoftmaxInPlace(s)
	return s
}

// StorageBytes returns the storage footprint of the quantised weights.
func (q *Quantized) StorageBytes() int { return len(q.W) }
