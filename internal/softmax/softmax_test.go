package softmax

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// separable builds a linearly separable 3-class problem in 4 dimensions
// (3 indicator features + bias), one label per vector.
func separable(n int, rng *rand.Rand) ([][]float64, [][]int) {
	xs, labels := make([][]float64, n), make([][]int, n)
	for i := range xs {
		y := rng.IntN(3)
		x := []float64{0, 0, 0, 1}
		x[y] = 1 + 0.1*rng.Float64()
		xs[i], labels[i] = x, []int{y}
	}
	return xs, labels
}

// train builds a training set from xs and trains one K-class model on it.
func train(tb testing.TB, d, k int, xs [][]float64, labels [][]int, opts Options) *Model {
	tb.Helper()
	s, err := NewTrainingSet(d, xs)
	if err != nil {
		tb.Fatal(err)
	}
	m, err := s.Train(k, labels, opts)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

func TestTrainSeparable(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	xs, labels := separable(300, rng)
	m := train(t, 4, 3, xs, labels, DefaultOptions())
	correct := 0
	for i, x := range xs {
		if m.Predict(x) == labels[i][0] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(xs)); acc < 0.98 {
		t.Errorf("training accuracy %.3f on separable data, want >= 0.98", acc)
	}
}

func TestGeneralizes(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	xs, labels := separable(300, rng)
	m := train(t, 4, 3, xs, labels, DefaultOptions())
	test, want := separable(200, rand.New(rand.NewPCG(99, 99)))
	correct := 0
	for i, x := range test {
		if m.Predict(x) == want[i][0] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(test)); acc < 0.98 {
		t.Errorf("held-out accuracy %.3f, want >= 0.98", acc)
	}
}

func TestDeterministicTraining(t *testing.T) {
	xs1, labels1 := separable(100, rand.New(rand.NewPCG(3, 3)))
	xs2, labels2 := separable(100, rand.New(rand.NewPCG(3, 3)))
	m1 := train(t, 4, 3, xs1, labels1, DefaultOptions())
	m2 := train(t, 4, 3, xs2, labels2, DefaultOptions())
	for i := range m1.W {
		if m1.W[i] != m2.W[i] {
			t.Fatalf("weight %d differs: %v vs %v", i, m1.W[i], m2.W[i])
		}
	}
}

func TestRegularizationShrinksWeights(t *testing.T) {
	xs, labels := separable(200, rand.New(rand.NewPCG(4, 4)))
	weak := train(t, 4, 3, xs, labels, Options{Lambda: 0.01, InitWeight: 1, MaxIter: 200, Tol: 1e-6})
	strong := train(t, 4, 3, xs, labels, Options{Lambda: 10, InitWeight: 1, MaxIter: 200, Tol: 1e-6})
	nw, ns := 0.0, 0.0
	for i := range weak.W {
		nw += weak.W[i] * weak.W[i]
		ns += strong.W[i] * strong.W[i]
	}
	if ns >= nw {
		t.Errorf("strong-lambda norm %.3f not below weak-lambda norm %.3f", ns, nw)
	}
}

func TestMultiLabelExamples(t *testing.T) {
	// A phase with two good classes should get high probability on both:
	// the same vector is labelled 0 and 1, never 2.
	var xs [][]float64
	var labels [][]int
	for i := 0; i < 100; i++ {
		xs = append(xs, []float64{1, 0.5, 1})
		labels = append(labels, []int{0, 1})
	}
	m := train(t, 3, 3, xs, labels, DefaultOptions())
	p := m.Probabilities([]float64{1, 0.5, 1})
	if p[2] > p[0] || p[2] > p[1] {
		t.Errorf("never-good class has top probability: %v", p)
	}
}

func TestValidation(t *testing.T) {
	if _, err := NewTrainingSet(3, nil); err == nil {
		t.Error("no vectors accepted")
	}
	if _, err := NewTrainingSet(3, [][]float64{{1}}); err == nil {
		t.Error("wrong feature length accepted")
	}
	if _, err := NewTrainingSet(0, [][]float64{{}}); err == nil {
		t.Error("zero-dim vectors accepted")
	}
	s, err := NewTrainingSet(3, [][]float64{{1, 2, 3}, {0, 1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	for name, labels := range map[string][][]int{
		"label out of range":  {{0}, {5}},
		"negative label":      {{-1}, {0}},
		"unlabelled vector":   {{0}, {}},
		"too few label lists": {{0}},
	} {
		if _, err := s.Train(2, labels, DefaultOptions()); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if _, err := s.Train(0, [][]int{{}, {}}, DefaultOptions()); err == nil {
		t.Error("zero classes accepted")
	}
	if _, err := NewModel(0, 3, 1); err == nil {
		t.Error("zero-dim model accepted")
	}
}

func TestPredictPanicsOnBadLength(t *testing.T) {
	m, _ := NewModel(3, 2, 1)
	defer func() {
		if recover() == nil {
			t.Error("no panic on wrong feature length")
		}
	}()
	m.Predict([]float64{1})
}

func TestProbabilitiesSumToOne(t *testing.T) {
	m, _ := NewModel(4, 5, 0.3)
	p := m.Probabilities([]float64{0.2, -1, 3, 0.5})
	s := 0.0
	for _, v := range p {
		if v < 0 {
			t.Errorf("negative probability %v", v)
		}
		s += v
	}
	if math.Abs(s-1) > 1e-9 {
		t.Errorf("probabilities sum to %v", s)
	}
}

func TestProbabilitiesNumericallyStable(t *testing.T) {
	m, _ := NewModel(2, 3, 0)
	// Huge scores must not overflow.
	m.W[0], m.W[1], m.W[2] = 1000, -1000, 0
	p := m.Probabilities([]float64{1, 0})
	if math.IsNaN(p[0]) || math.IsInf(p[0], 0) {
		t.Errorf("unstable probabilities: %v", p)
	}
	if p[0] < 0.999 {
		t.Errorf("dominant class probability %v, want ~1", p[0])
	}
}

func TestQuantizeRoundTrip(t *testing.T) {
	xs, labels := separable(300, rand.New(rand.NewPCG(7, 7)))
	m := train(t, 4, 3, xs, labels, DefaultOptions())
	q := m.Quantize()
	if q.StorageBytes() != 4*3 {
		t.Errorf("storage %d bytes, want 12", q.StorageBytes())
	}
	agree := 0
	for _, x := range xs {
		if q.Predict(x) == m.Predict(x) {
			agree++
		}
	}
	if frac := float64(agree) / float64(len(xs)); frac < 0.95 {
		t.Errorf("8-bit model agrees with float on only %.3f of examples", frac)
	}
}

func TestQuantizedScoresScaledToFloatUnits(t *testing.T) {
	xs, labels := separable(200, rand.New(rand.NewPCG(9, 9)))
	m := train(t, 4, 3, xs, labels, DefaultOptions())
	q := m.Quantize()
	// Scores are Scale * integer accumulator: close to the float scores,
	// within the per-weight quantisation error bound.
	for _, x := range xs[:20] {
		fs := m.Scores(x, nil)
		qs := q.Scores(x, nil)
		var xsum float64
		for _, xi := range x {
			xsum += math.Abs(xi)
		}
		bound := q.Scale/2*xsum + 1e-9
		for k := range fs {
			if d := math.Abs(fs[k] - qs[k]); d > bound {
				t.Fatalf("class %d: quantized score %v vs float %v (err %v > bound %v)", k, qs[k], fs[k], d, bound)
			}
		}
	}
}

func TestQuantizedProbabilities(t *testing.T) {
	xs, labels := separable(200, rand.New(rand.NewPCG(11, 11)))
	m := train(t, 4, 3, xs, labels, DefaultOptions())
	q := m.Quantize()
	for _, x := range xs[:20] {
		p := q.Probabilities(x)
		sum := 0.0
		argmax := 0
		for k, v := range p {
			if v < 0 || math.IsNaN(v) {
				t.Fatalf("bad probability %v", v)
			}
			sum += v
			if v > p[argmax] {
				argmax = k
			}
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("probabilities sum to %v", sum)
		}
		if argmax != q.Predict(x) {
			t.Errorf("probability argmax %d disagrees with Predict %d", argmax, q.Predict(x))
		}
	}
}

func TestQuantizeZeroModel(t *testing.T) {
	m, _ := NewModel(2, 2, 0)
	q := m.Quantize()
	if q.Scale != 1 {
		t.Errorf("zero-model scale %v, want 1", q.Scale)
	}
	if got := q.Predict([]float64{1, 1}); got != 0 {
		t.Errorf("zero model predicts %d, want 0 (ties break low)", got)
	}
}

// Property: Predict always returns a class in range, for arbitrary finite
// inputs.
func TestQuickPredictInRange(t *testing.T) {
	m, _ := NewModel(3, 4, 0.5)
	f := func(a, b, c float64) bool {
		for _, v := range []float64{a, b, c} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		y := m.Predict([]float64{a, b, c})
		return y >= 0 && y < 4
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: training on K=1 trivially predicts class 0.
func TestSingleClass(t *testing.T) {
	m := train(t, 2, 1, [][]float64{{1, 2}, {0, 1}}, [][]int{{0}, {0}}, DefaultOptions())
	if m.Predict([]float64{3, 4}) != 0 {
		t.Error("single-class model failed")
	}
}

// Property: Predict agrees with the argmax of Probabilities.
func TestQuickPredictMatchesProbabilities(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	m, _ := NewModel(5, 4, 0)
	for i := range m.W {
		m.W[i] = rng.Float64()*4 - 2
	}
	f := func(a, b, c, d, e float64) bool {
		for _, v := range []float64{a, b, c, d, e} {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
				return true
			}
		}
		x := []float64{a, b, c, d, e}
		p := m.Probabilities(x)
		best, bi := -1.0, 0
		for k, v := range p {
			if v > best {
				best, bi = v, k
			}
		}
		return m.Predict(x) == bi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTrainingImprovesLikelihood(t *testing.T) {
	xs, labels := separable(200, rand.New(rand.NewPCG(21, 22)))
	init, _ := NewModel(4, 3, 1)
	trained := train(t, 4, 3, xs, labels, DefaultOptions())
	ll := func(m *Model) float64 {
		s := 0.0
		for i, x := range xs {
			s += math.Log(m.Probabilities(x)[labels[i][0]] + 1e-300)
		}
		return s
	}
	if ll(trained) <= ll(init) {
		t.Errorf("training did not improve log-likelihood: %.2f vs %.2f", ll(trained), ll(init))
	}
}

// randomBatch draws n dense feature vectors (with some exact zeros, which
// the kernels skip) of dimension d.
func randomBatch(d, n int, rng *rand.Rand) [][]float64 {
	xs := make([][]float64, n)
	for i := range xs {
		v := make([]float64, d)
		for j := range v {
			if rng.IntN(4) == 0 {
				continue // exercise the xi==0 skip path
			}
			v[j] = rng.NormFloat64()
		}
		v[d-1] = 1
		xs[i] = v
	}
	return xs
}

// TestScoresBatchBitIdentical pins the batched kernel's contract: for every
// vector, ScoresBatch must produce the exact bits Scores produces, so that
// batching is an amortisation, never an approximation.
func TestScoresBatchBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	xs, labels := separable(300, rng)
	m := train(t, 4, 3, xs, labels, DefaultOptions())
	q := m.Quantize()
	for _, n := range []int{1, 2, 7, 64} {
		xs := randomBatch(4, n, rng)
		batch := m.ScoresBatch(xs, nil)
		qbatch := q.ScoresBatch(xs, nil)
		if len(batch) != n*3 || len(qbatch) != n*3 {
			t.Fatalf("n=%d: batch score length %d/%d, want %d", n, len(batch), len(qbatch), n*3)
		}
		var single, qsingle []float64
		for i, x := range xs {
			single = m.Scores(x, single)
			qsingle = q.Scores(x, qsingle)
			for k := 0; k < 3; k++ {
				if got, want := batch[i*3+k], single[k]; got != want {
					t.Errorf("n=%d float vector %d class %d: batch %v != single %v", n, i, k, got, want)
				}
				if got, want := qbatch[i*3+k], qsingle[k]; got != want {
					t.Errorf("n=%d quantized vector %d class %d: batch %v != single %v", n, i, k, got, want)
				}
			}
		}
	}
}

// TestScoresBatchReusesBuffer checks the preallocation contract.
func TestScoresBatchReusesBuffer(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 8))
	train0, labels := separable(100, rng)
	m := train(t, 4, 3, train0, labels, DefaultOptions())
	xs := randomBatch(4, 5, rng)
	buf := make([]float64, 0, 64)
	out := m.ScoresBatch(xs, buf)
	if &out[:1][0] != &buf[:1][0] {
		t.Error("ScoresBatch did not reuse the provided buffer despite sufficient capacity")
	}
}

// TestSoftmaxInPlaceMatchesProbabilities ties the shared normaliser to the
// historical Probabilities output.
func TestSoftmaxInPlaceMatchesProbabilities(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9))
	xs, labels := separable(100, rng)
	m := train(t, 4, 3, xs, labels, DefaultOptions())
	for _, x := range randomBatch(4, 10, rng) {
		want := m.Probabilities(x)
		s := m.Scores(x, nil)
		SoftmaxInPlace(s)
		for k := range want {
			if s[k] != want[k] {
				t.Errorf("SoftmaxInPlace diverges from Probabilities at class %d: %v != %v", k, s[k], want[k])
			}
		}
		sum := 0.0
		for _, p := range s {
			sum += p
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("probabilities sum to %v", sum)
		}
	}
}

// referenceObjective is the per-example form of the training objective
// f = -L + lambda*||W||^2 and its gradient: every (vector, label) example
// scored on its own, with no grouping and no score-space shortcuts. The
// trainer must agree with it to rounding.
func referenceObjective(w []float64, d, k int, xs [][]float64, labels [][]int, lambda float64, grad []float64) float64 {
	m := &Model{D: d, K: k, W: w}
	for i := range grad {
		grad[i] = 0
	}
	f := 0.0
	for n, x := range xs {
		s := m.Scores(x, nil)
		maxS := math.Inf(-1)
		for _, v := range s {
			maxS = math.Max(maxS, v)
		}
		logZ := 0.0
		for _, v := range s {
			logZ += math.Exp(v - maxS)
		}
		logZ = math.Log(logZ) + maxS
		for _, y := range labels[n] {
			f -= s[y] - logZ
			for c := range s {
				coeff := math.Exp(s[c] - logZ)
				if c == y {
					coeff--
				}
				for i, xi := range x {
					grad[i*k+c] += coeff * xi
				}
			}
		}
	}
	for i, wi := range w {
		f += lambda * wi * wi
		grad[i] += 2 * lambda * wi
	}
	return f
}

func randomWeights(n int, rng *rand.Rand) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	return w
}

func relClose(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// TestObjGradMatchesReference pins the fused, grouped objective and
// gradient to the per-example reference.
func TestObjGradMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 37))
	const d, k, lambda = 40, 6, 0.5
	for trial := 0; trial < 5; trial++ {
		xs := randomBatch(d, 7, rng)
		labels := labelled(len(xs), k, 5, rng)
		w := randomWeights(d*k, rng)
		pr, err := grouped(d, xs).problem(k, lambda, labels)
		if err != nil {
			t.Fatal(err)
		}
		if len(pr.groups) != 7 {
			t.Fatalf("%d groups from 7 distinct vectors", len(pr.groups))
		}
		grad := make([]float64, d*k)
		refGrad := make([]float64, d*k)
		f := pr.objGrad(w, grad)
		ref := referenceObjective(w, d, k, xs, labels, lambda, refGrad)
		if !relClose(f, ref, 1e-12) {
			t.Errorf("trial %d: objective %v, reference %v", trial, f, ref)
		}
		for i := range grad {
			if !relClose(grad[i], refGrad[i], 1e-12) {
				t.Fatalf("trial %d: gradient[%d] %v, reference %v", trial, i, grad[i], refGrad[i])
			}
		}
	}
}

// TestLineValueMatchesDirect checks the score-space line search: the value
// at step t equals the direct objective at W + t*dir.
func TestLineValueMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 43))
	const d, k, lambda = 40, 6, 0.5
	xs := randomBatch(d, 7, rng)
	labels := labelled(len(xs), k, 5, rng)
	w := randomWeights(d*k, rng)
	dir := randomWeights(d*k, rng)
	pr, err := grouped(d, xs).problem(k, lambda, labels)
	if err != nil {
		t.Fatal(err)
	}
	grad := make([]float64, d*k)
	pr.objGrad(w, grad)
	pr.line(w, dir)
	trial := make([]float64, d*k)
	for _, step := range []float64{0, 1e-3, 0.0625, 0.5, 1, 3} {
		for i := range trial {
			trial[i] = w[i] + step*dir[i]
		}
		want := referenceObjective(trial, d, k, xs, labels, lambda, grad)
		if got := pr.lineValue(step); !relClose(got, want, 1e-12) {
			t.Errorf("step %v: line value %v, direct objective %v", step, got, want)
		}
	}
}

// TestTrainNonConsecutiveDuplicates interleaves vectors that hold equal
// values, so grouping cannot merge them: the model must still be valid,
// make the same decisions as the grouped order, and report a final
// objective that matches the reference at its weights.
func TestTrainNonConsecutiveDuplicates(t *testing.T) {
	rng := rand.New(rand.NewPCG(47, 53))
	const d, k = 12, 4
	xs := randomBatch(d, 4, rng)
	adjacent := make([][]int, len(xs))
	for i := range xs {
		adjacent[i] = []int{i % k, (i + 1) % k}
	}
	var interleavedXs [][]float64
	var interleaved [][]int
	for _, y := range []int{0, 1} {
		for i, x := range xs {
			// A copy, so identity cannot short-circuit the comparison.
			interleavedXs = append(interleavedXs, append([]float64(nil), x...))
			interleaved = append(interleaved, []int{(i + y) % k})
		}
	}
	s, err := NewTrainingSet(d, interleavedXs)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(s.groups); n != len(interleavedXs) {
		t.Fatalf("interleaved vectors formed %d groups, want %d", n, len(interleavedXs))
	}
	opts := DefaultOptions()
	a := train(t, d, k, xs, adjacent, opts)
	b, err := s.Train(k, interleaved, opts)
	if err != nil {
		t.Fatal(err)
	}
	grad := make([]float64, d*k)
	for _, m := range []*Model{a, b} {
		for _, w := range m.W {
			if math.IsNaN(w) || math.IsInf(w, 0) {
				t.Fatalf("non-finite weight %v", w)
			}
		}
		if m.Stats.Iters == 0 || m.Stats.Evals < m.Stats.Iters {
			t.Errorf("implausible stats %+v", m.Stats)
		}
		if ref := referenceObjective(m.W, d, k, xs, adjacent, opts.Lambda, grad); !relClose(m.Stats.Objective, ref, 1e-9) {
			t.Errorf("stats objective %v, reference at trained weights %v", m.Stats.Objective, ref)
		}
	}
	for _, x := range xs {
		if pa, pb := a.Predict(x), b.Predict(x); pa != pb {
			t.Errorf("grouped order predicts %d, interleaved %d", pa, pb)
		}
	}
}

// referenceTrain is the trainer without the change of coordinates: the
// same conjugate-gradient loop run on the unprojected groups and all
// D x K weights, starting from InitWeight everywhere.
func referenceTrain(tb testing.TB, d, k int, xs [][]float64, labels [][]int, opts Options) *Model {
	pr, err := grouped(d, xs).problem(k, opts.Lambda, labels)
	if err != nil {
		tb.Fatal(err)
	}
	w := make([]float64, d*k)
	for i := range w {
		w[i] = opts.InitWeight
	}
	return &Model{D: d, K: k, W: w, Stats: pr.minimize(w, opts)}
}

// sparseVectors draws n vectors of dimension d with nnz nonzero features
// each, uniform in [0, 1).
func sparseVectors(d, nnz, n int, rng *rand.Rand) [][]float64 {
	xs := make([][]float64, n)
	for v := range xs {
		xs[v] = make([]float64, d)
		for _, i := range rng.Perm(d)[:nnz] {
			xs[v][i] = rng.Float64()
		}
	}
	return xs
}

// labelled gives each of n vectors 1..maxGood random labels out of k, as
// core does for a phase's good configurations.
func labelled(n, k, maxGood int, rng *rand.Rand) [][]int {
	labels := make([][]int, n)
	for i := range labels {
		for g := 1 + rng.IntN(maxGood); g > 0; g-- {
			labels[i] = append(labels[i], rng.IntN(k))
		}
	}
	return labels
}

// TestTrainMatchesFullSpace holds TrainingSet.Train, which runs in an
// orthonormal basis of span{1, x_g}, to the D-space reference loop: the
// same decisions on the training vectors and on random ones, the reported
// objective equal to the reference objective at the lifted weights, and
// the same weights wherever both runs reach Tol, and the same trajectory
// over the first iterations. It also checks the
// basis itself: orthonormal rows, and coordinates that reproduce every
// training vector.
func TestTrainMatchesFullSpace(t *testing.T) {
	rng := rand.New(rand.NewPCG(67, 71))
	type tcase struct {
		name   string
		d, k   int
		xs     [][]float64
		labels [][]int
	}
	mk := func(name string, d, k, maxGood int, xs [][]float64) tcase {
		return tcase{name, d, k, xs, labelled(len(xs), k, maxGood, rng)}
	}
	cases := []tcase{
		mk("testscale", 437, 17, 4, sparseVectors(437, 184, 8, rng)),
		mk("groups>features", 6, 4, 3, randomBatch(6, 20, rng)),
		func() tcase {
			xs := sparseVectors(30, 12, 3, rng)
			tc := tcase{name: "non-consecutive duplicates", d: 30, k: 5}
			for rep := 0; rep < 3; rep++ {
				for i, x := range xs {
					tc.xs = append(tc.xs, append([]float64(nil), x...))
					tc.labels = append(tc.labels, []int{(i + rep) % 5})
				}
			}
			return tc
		}(),
		mk("all-zero vector", 30, 5, 3, append(sparseVectors(30, 12, 4, rng), make([]float64, 30))),
		mk("single group", 50, 6, 4, sparseVectors(50, 20, 1, rng)),
		func() tcase {
			xs := sparseVectors(30, 12, 3, rng)
			for _, x := range xs[:2] {
				near := append([]float64(nil), x...)
				for i := range near {
					near[i] += 1e-7 * rng.Float64()
				}
				xs = append(xs, near)
			}
			return mk("near-parallel vectors", 30, 5, 3, xs)
		}(),
	}
	converged := 0
	for _, tc := range cases {
		s, err := NewTrainingSet(tc.d, tc.xs)
		if err != nil {
			t.Fatal(err)
		}
		for _, init := range []float64{0, 1} {
			opts := DefaultOptions()
			opts.InitWeight = init
			got, err := s.Train(tc.k, tc.labels, opts)
			if err != nil {
				t.Fatal(err)
			}
			want := referenceTrain(t, tc.d, tc.k, tc.xs, tc.labels, opts)
			name := fmt.Sprintf("%s/init=%v", tc.name, init)

			probes := append(randomBatch(tc.d, 100, rng), tc.xs...)
			for i, x := range probes {
				if a, b := got.Predict(x), want.Predict(x); a != b {
					t.Errorf("%s: vector %d: basis model predicts %d, full-space %d", name, i, a, b)
				}
			}
			grad := make([]float64, tc.d*tc.k)
			if ref := referenceObjective(got.W, tc.d, tc.k, tc.xs, tc.labels, opts.Lambda, grad); !relClose(got.Stats.Objective, ref, 1e-9) {
				t.Errorf("%s: stats objective %v, reference at lifted weights %v", name, got.Stats.Objective, ref)
			}
			// A few iterations in, rounding has not yet moved the two
			// trajectories apart: the same steps, objective and weights.
			short := opts
			short.MaxIter = 5
			gotShort, err := s.Train(tc.k, tc.labels, short)
			if err != nil {
				t.Fatal(err)
			}
			wantShort := referenceTrain(t, tc.d, tc.k, tc.xs, tc.labels, short)
			if gotShort.Stats.Iters != wantShort.Stats.Iters || !relClose(gotShort.Stats.Objective, wantShort.Stats.Objective, 1e-9) {
				t.Errorf("%s: after %d iterations: stats %+v, full-space %+v", name, short.MaxIter, gotShort.Stats, wantShort.Stats)
			}
			for i := range gotShort.W {
				if !relClose(gotShort.W[i], wantShort.W[i], 1e-6) {
					t.Fatalf("%s: after %d iterations: weight %d: %v, full-space %v", name, short.MaxIter, i, gotShort.W[i], wantShort.W[i])
				}
			}
			if got.Stats.GradNorm < opts.Tol && want.Stats.GradNorm < opts.Tol {
				converged++
				for i := range got.W {
					if !relClose(got.W[i], want.W[i], 1e-6) {
						t.Fatalf("%s: converged weight %d: %v, full-space %v", name, i, got.W[i], want.W[i])
					}
				}
			}
		}

		full := grouped(tc.d, tc.xs)
		if len(s.groups) != len(full.groups) {
			t.Fatalf("%s: %d projected groups, %d unprojected", tc.name, len(s.groups), len(full.groups))
		}
		q := s.q
		r := len(q) / tc.d
		if r < 1 || r > min(tc.d, len(s.groups)+1) {
			t.Errorf("%s: basis rank %d for %d groups of dimension %d", tc.name, r, len(s.groups), tc.d)
		}
		for a := 0; a < r; a++ {
			for b := 0; b < r; b++ {
				want := 0.0
				if a == b {
					want = 1
				}
				if got := dot(q[a*tc.d:a*tc.d+tc.d], q[b*tc.d:b*tc.d+tc.d]); math.Abs(got-want) > 1e-12 {
					t.Errorf("%s: (QQ^T)[%d][%d] = %v", tc.name, a, b, got)
				}
			}
		}
		for gi, g := range s.groups {
			x := full.groups[gi].x
			lifted := make([]float64, tc.d)
			for j, zj := range g.x {
				for i := range lifted {
					lifted[i] += zj * q[j*tc.d+i]
				}
			}
			for i := range lifted {
				lifted[i] -= x[i]
			}
			if e := math.Sqrt(dot(lifted, lifted)); e > 1e-12*math.Sqrt(dot(x, x)) {
				t.Errorf("%s: group %d: ||Q^T z - x|| = %v", tc.name, gi, e)
			}
		}
	}
	if converged == 0 {
		t.Error("no case reached Tol in both runs: the weight comparison never ran")
	}
}

// BenchmarkTrain builds a training set and trains one model on it at three
// shapes: the TestScale advanced TrainAll (8 phase vectors of 437
// features, ~184 nonzero, 26 examples, the 17-class ROB-size domain), one
// 26 x 2 advanced LOOCV fold (50 vectors) and the same fold with the 16
// basic features.
func BenchmarkTrain(b *testing.B) {
	for _, sh := range []struct {
		name        string
		d, nnz, vec int
	}{
		{"testscale-8x437", 437, 184, 8},
		{"fold26x2-50x437", 437, 184, 50},
		{"basic-50x16", 16, 16, 50},
	} {
		b.Run(sh.name, func(b *testing.B) {
			const k = 17
			rng := rand.New(rand.NewPCG(59, 61))
			xs := sparseVectors(sh.d, sh.nnz, sh.vec, rng)
			labels := make([][]int, len(xs))
			for v := range xs {
				for g := 0; g < 3+v%8/6; g++ {
					labels[v] = append(labels[v], rng.IntN(k))
				}
			}
			opts := DefaultOptions()
			opts.MaxIter = 150
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				trainSink = train(b, sh.d, k, xs, labels, opts)
			}
		})
	}
}

var trainSink *Model
