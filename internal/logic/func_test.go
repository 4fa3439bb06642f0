package logic

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConst(t *testing.T) {
	for n := 0; n <= 8; n++ {
		zero := Const(n, false)
		one := Const(n, true)
		if got := zero.OnSetSize(); got != 0 {
			t.Errorf("Const(%d,false).OnSetSize() = %d, want 0", n, got)
		}
		if got := one.OnSetSize(); got != 1<<n {
			t.Errorf("Const(%d,true).OnSetSize() = %d, want %d", n, got, 1<<n)
		}
		if !zero.IsConst(false) || !one.IsConst(true) {
			t.Errorf("IsConst misreports for n=%d", n)
		}
		if zero.Equal(one) && n >= 0 {
			t.Errorf("Const(%d,false) == Const(%d,true)", n, n)
		}
	}
}

func TestVarEval(t *testing.T) {
	for n := 1; n <= 9; n++ {
		for i := 0; i < n; i++ {
			v := Var(i, n)
			for m := uint(0); m < 1<<n; m++ {
				want := m>>i&1 == 1
				if got := v.Eval(m); got != want {
					t.Fatalf("Var(%d,%d).Eval(%d) = %v, want %v", i, n, m, got, want)
				}
			}
		}
	}
}

func TestVarOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Var(3,3) did not panic")
		}
	}()
	Var(3, 3)
}

func TestEvalOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Eval out of range did not panic")
		}
	}()
	Const(2, true).Eval(4)
}

func TestTooManyVarsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Const(17,...) did not panic")
		}
	}()
	Const(MaxVars+1, false)
}

func TestDeMorgan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(8)
		f := randFunc(rng, n)
		g := randFunc(rng, n)
		lhs := f.And(g).Not()
		rhs := f.Not().Or(g.Not())
		if !lhs.Equal(rhs) {
			t.Fatalf("De Morgan violated for n=%d: %v vs %v", n, lhs, rhs)
		}
	}
}

func TestXorViaAndOr(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(8)
		f := randFunc(rng, n)
		g := randFunc(rng, n)
		want := f.And(g.Not()).Or(g.And(f.Not()))
		if got := f.Xor(g); !got.Equal(want) {
			t.Fatalf("Xor mismatch for n=%d", n)
		}
	}
}

func TestShannonExpansion(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(8)
		f := randFunc(rng, n)
		i := rng.Intn(n)
		xi := Var(i, n)
		expand := xi.And(f.Cofactor(i, true)).Or(xi.Not().And(f.Cofactor(i, false)))
		if !expand.Equal(f) {
			t.Fatalf("Shannon expansion violated for n=%d i=%d", n, i)
		}
	}
}

func TestCofactorIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(8)
		f := randFunc(rng, n)
		i := rng.Intn(n)
		for _, v := range []bool{false, true} {
			cf := f.Cofactor(i, v)
			if cf.DependsOn(i) {
				t.Fatalf("Cofactor(%d,%v) still depends on %d", i, v, i)
			}
		}
	}
}

func TestDiffProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(8)
		f := randFunc(rng, n)
		i := rng.Intn(n)
		d := f.Diff(i)
		// ∂f/∂xi does not depend on xi.
		if d.DependsOn(i) {
			t.Fatalf("Diff(%d) depends on %d", i, i)
		}
		// ∂f/∂xi == ∂(¬f)/∂xi.
		if !d.Equal(f.Not().Diff(i)) {
			t.Fatalf("Diff of complement differs")
		}
		// f XOR f shifted: flipping xi flips f exactly on the on-set of d.
		for m := uint(0); m < 1<<n; m++ {
			flipped := m ^ (1 << i)
			if d.Eval(m) != (f.Eval(m) != f.Eval(flipped)) {
				t.Fatalf("Diff semantics violated at minterm %d", m)
			}
		}
	}
}

func TestDiffXorRule(t *testing.T) {
	// ∂(f⊕g)/∂x = ∂f/∂x ⊕ ∂g/∂x, an exact identity.
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(7)
		f := randFunc(rng, n)
		g := randFunc(rng, n)
		i := rng.Intn(n)
		if !f.Xor(g).Diff(i).Equal(f.Diff(i).Xor(g.Diff(i))) {
			t.Fatalf("xor rule of boolean difference violated")
		}
	}
}

func TestSupport(t *testing.T) {
	f := MustParseExpr("a*c + !a*c", []string{"a", "b", "c"})
	// f reduces to c.
	got := f.Support()
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("Support() = %v, want [2]", got)
	}
	if !f.Equal(Var(2, 3)) {
		t.Fatalf("a*c + !a*c != c")
	}
}

func TestProbConst(t *testing.T) {
	p := []float64{0.3, 0.7}
	if got := Const(2, false).Prob(p); got != 0 {
		t.Errorf("Prob of 0 = %g", got)
	}
	if got := Const(2, true).Prob(p); math.Abs(got-1) > 1e-12 {
		t.Errorf("Prob of 1 = %g", got)
	}
}

func TestProbVarAndComplement(t *testing.T) {
	p := []float64{0.3, 0.8, 0.5}
	for i := range p {
		if got := Var(i, 3).Prob(p); math.Abs(got-p[i]) > 1e-12 {
			t.Errorf("Prob(x%d) = %g, want %g", i, got, p[i])
		}
		if got := Var(i, 3).Not().Prob(p); math.Abs(got-(1-p[i])) > 1e-12 {
			t.Errorf("Prob(!x%d) = %g, want %g", i, got, 1-p[i])
		}
	}
}

func TestProbIndependentProduct(t *testing.T) {
	// P(a·b) = P(a)·P(b) for independent variables.
	p := []float64{0.25, 0.6}
	f := Var(0, 2).And(Var(1, 2))
	if got, want := f.Prob(p), 0.25*0.6; math.Abs(got-want) > 1e-12 {
		t.Errorf("Prob(ab) = %g, want %g", got, want)
	}
	g := Var(0, 2).Or(Var(1, 2))
	if got, want := g.Prob(p), 1-(1-0.25)*(1-0.6); math.Abs(got-want) > 1e-12 {
		t.Errorf("Prob(a+b) = %g, want %g", got, want)
	}
}

func TestProbComplementSumsToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(7)
		f := randFunc(rng, n)
		p := make([]float64, n)
		for i := range p {
			p[i] = rng.Float64()
		}
		sum := f.Prob(p) + f.Not().Prob(p)
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("P(f)+P(!f) = %g, want 1", sum)
		}
	}
}

func TestProbMonotoneInOr(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(7)
		f := randFunc(rng, n)
		g := randFunc(rng, n)
		p := make([]float64, n)
		for i := range p {
			p[i] = rng.Float64()
		}
		if f.Or(g).Prob(p) < f.Prob(p)-1e-12 {
			t.Fatalf("P(f+g) < P(f)")
		}
	}
}

func TestPermuteVars(t *testing.T) {
	// f(a,b,c) = a·¬b + c, permuted with perm [2,0,1]:
	// variable 0→2, 1→0, 2→1, so g(a,b,c) = c·¬a + b.
	f := MustParseExpr("a !b + c", []string{"a", "b", "c"})
	g := f.PermuteVars([]int{2, 0, 1})
	want := MustParseExpr("c !a + b", []string{"a", "b", "c"})
	if !g.Equal(want) {
		t.Fatalf("PermuteVars = %v, want %v", g, want)
	}
}

func TestPermuteVarsIdentityAndInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(7)
		f := randFunc(rng, n)
		perm := rng.Perm(n)
		inv := make([]int, n)
		for i, p := range perm {
			inv[p] = i
		}
		if !f.PermuteVars(perm).PermuteVars(inv).Equal(f) {
			t.Fatalf("permute then inverse != identity")
		}
	}
}

func TestImplies(t *testing.T) {
	a := Var(0, 2)
	ab := a.And(Var(1, 2))
	if !ab.Implies(a) {
		t.Error("ab should imply a")
	}
	if a.Implies(ab) {
		t.Error("a should not imply ab")
	}
}

func TestEqualDifferentArity(t *testing.T) {
	if Const(2, true).Equal(Const(3, true)) {
		t.Error("functions of different arity reported equal")
	}
}

func TestQuickDoubleNegation(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300}
	err := quick.Check(func(bitsVal uint16, nRaw uint8) bool {
		n := int(nRaw%4) + 1
		f := funcFromBits(uint64(bitsVal), n)
		return f.Not().Not().Equal(f)
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

func TestQuickAndCommutes(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300}
	err := quick.Check(func(a, b uint16, nRaw uint8) bool {
		n := int(nRaw%4) + 1
		f := funcFromBits(uint64(a), n)
		g := funcFromBits(uint64(b), n)
		return f.And(g).Equal(g.And(f)) && f.Or(g).Equal(g.Or(f))
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

func TestQuickAbsorption(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300}
	err := quick.Check(func(a, b uint16, nRaw uint8) bool {
		n := int(nRaw%4) + 1
		f := funcFromBits(uint64(a), n)
		g := funcFromBits(uint64(b), n)
		return f.Or(f.And(g)).Equal(f) && f.And(f.Or(g)).Equal(f)
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

// randFunc returns a uniformly random n-variable function.
func randFunc(rng *rand.Rand, n int) Func {
	f := Const(n, false)
	for i := range f.words {
		f.words[i] = rng.Uint64()
	}
	f.words[len(f.words)-1] &= tableMask(n)
	if n >= 6 {
		f.words[len(f.words)-1] = ^uint64(0) & f.words[len(f.words)-1]
	}
	return f
}

// funcFromBits builds an n≤4-variable function from the low 2^n bits of v.
func funcFromBits(v uint64, n int) Func {
	f := Const(n, false)
	f.words[0] = v & tableMask(n)
	return f
}

func BenchmarkProb8Var(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	f := randFunc(rng, 8)
	p := make([]float64, 8)
	for i := range p {
		p[i] = rng.Float64()
	}
	// Prob builds the weight table per call; WeightedProb is the per-
	// function cost once a caller shares one table across many functions.
	b.Run("Prob", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = f.Prob(p)
		}
	})
	b.Run("WeightedProb", func(b *testing.B) {
		w := MintermWeights(p, nil)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = f.WeightedProb(w)
		}
	})
}

func BenchmarkDiff10Var(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	f := randFunc(rng, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.Diff(i % 10)
	}
}

func TestProbUniformEqualsOnSetFraction(t *testing.T) {
	// At p = 0.5 everywhere, P(f) = |on-set| / 2^n exactly.
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(8)
		f := randFunc(rng, n)
		p := make([]float64, n)
		for i := range p {
			p[i] = 0.5
		}
		want := float64(f.OnSetSize()) / float64(uint(1)<<n)
		if got := f.Prob(p); math.Abs(got-want) > 1e-9 {
			t.Fatalf("Prob at 0.5 = %g, want on-set fraction %g", got, want)
		}
	}
}

func TestQuickProbLinearInOneVariable(t *testing.T) {
	// P(f) is affine in each pi: P(f)(p_i) = p_i·P(f|x_i=1) + (1-p_i)·P(f|x_i=0).
	cfg := &quick.Config{MaxCount: 200}
	err := quick.Check(func(bitsVal uint16, pRaw [3]uint8, which uint8) bool {
		n := 3
		f := funcFromBits(uint64(bitsVal), n)
		p := make([]float64, n)
		for i := range p {
			p[i] = float64(pRaw[i]) / 255
		}
		i := int(which) % n
		lhs := f.Prob(p)
		p1 := append([]float64(nil), p...)
		p1[i] = 1
		p0 := append([]float64(nil), p...)
		p0[i] = 0
		rhs := p[i]*f.Prob(p1) + (1-p[i])*f.Prob(p0)
		return math.Abs(lhs-rhs) < 1e-9
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}
