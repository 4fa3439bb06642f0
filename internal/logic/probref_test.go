package logic

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// referenceProb is the per-minterm Parker–McCluskey sum Prob computed
// before the weight table: for each on-set minterm in ascending order, the
// product of its n factors taken in variable order. It is kept as the
// oracle that pins MintermWeights + WeightedProb bit for bit.
func referenceProb(f Func, p []float64) float64 {
	if len(p) != f.n {
		panic(fmt.Sprintf("logic: Prob needs %d probabilities, got %d", f.n, len(p)))
	}
	for i, pi := range p {
		if pi < 0 || pi > 1 {
			panic(fmt.Sprintf("logic: probability p[%d]=%g out of [0,1]", i, pi))
		}
	}
	total := 0.0
	size := uint(1) << f.n
	for m := uint(0); m < size; m++ {
		if !f.Eval(m) {
			continue
		}
		term := 1.0
		for i := 0; i < f.n; i++ {
			if m>>i&1 == 1 {
				term *= p[i]
			} else {
				term *= 1 - p[i]
			}
		}
		total += term
	}
	return total
}

func TestWeightedProbMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	// Edge values every probability vector draws from besides uniform
	// ones: the certain/impossible endpoints, an exact half and the
	// smallest subnormal.
	edges := []float64{0, 1, 0.5, math.SmallestNonzeroFloat64}
	var w []float64
	for n := 0; n <= 10; n++ {
		funcs := []Func{Const(n, false), Const(n, true)}
		for i := 0; i < n; i++ {
			funcs = append(funcs, Var(i, n), Var(i, n).Not())
		}
		for k := 0; k < 8; k++ {
			funcs = append(funcs, randFunc(rng, n))
		}
		for trial := 0; trial < 6; trial++ {
			p := make([]float64, n)
			for i := range p {
				if trial > 0 && rng.Intn(3) == 0 {
					p[i] = edges[rng.Intn(len(edges))]
				} else {
					p[i] = rng.Float64()
				}
			}
			if trial == 1 {
				copy(p, edges) // the edge values on the leading variables at once
			}
			w = MintermWeights(p, w)
			for _, f := range funcs {
				want := referenceProb(f, p)
				if got := f.WeightedProb(w); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("n=%d f=%v p=%v: WeightedProb %v (%#x), reference %v (%#x)",
						n, f, p, got, math.Float64bits(got), want, math.Float64bits(want))
				}
				if got := f.Prob(p); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("n=%d f=%v p=%v: Prob %v, reference %v", n, f, p, got, want)
				}
			}
		}
	}
}

func TestMintermWeightsRejectsOutOfRange(t *testing.T) {
	eps := math.Nextafter(0, 1)
	for _, bad := range []float64{math.NaN(), -eps, math.Nextafter(1, 2), math.Inf(1)} {
		func() {
			defer func() {
				r := recover()
				msg, _ := r.(string)
				if !strings.Contains(msg, "out of [0,1]") {
					t.Errorf("p[1]=%v: panic %v, want out-of-range panic", bad, r)
				}
			}()
			MintermWeights([]float64{0.5, bad}, nil)
		}()
	}
}

func TestMintermWeightsReusesDst(t *testing.T) {
	dst := make([]float64, 0, 8)
	w := MintermWeights([]float64{0.25, 0.5, 1}, dst)
	if &w[0] != &dst[:1][0] {
		t.Error("MintermWeights did not reuse a large enough dst")
	}
	sum := 0.0
	for _, x := range w {
		sum += x
	}
	if sum != 1 {
		t.Errorf("weights sum to %v, want 1", sum)
	}
}
