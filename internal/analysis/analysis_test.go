package analysis

import (
	"math"
	"testing"

	"chaffmec/internal/markov"
	"chaffmec/internal/mobility"
	"chaffmec/internal/rng"
)

func TestComputeConstantsHandChain(t *testing.T) {
	// π = (0.25, 0.75); transitions {0.7, 0.3} and {0.1, 0.9}.
	c := markov.MustNew([][]float64{
		{0.7, 0.3},
		{0.1, 0.9},
	})
	consts, err := ComputeConstants(c)
	if err != nil {
		t.Fatal(err)
	}
	if want := math.Log(0.75 / 0.25); math.Abs(consts.C0-want) > 1e-9 {
		t.Fatalf("C0 = %v, want %v", consts.C0, want)
	}
	if want := math.Log(0.1 / 0.9); math.Abs(consts.Cmin-want) > 1e-9 {
		t.Fatalf("Cmin = %v, want %v", consts.Cmin, want)
	}
	// p₂: second-largest per row = {0.3, 0.1}; min = 0.1 ⇒ c_max = log(0.9/0.1).
	if want := math.Log(0.9 / 0.1); math.Abs(consts.Cmax-want) > 1e-9 {
		t.Fatalf("Cmax = %v, want %v", consts.Cmax, want)
	}
}

func TestComputeConstantsValidation(t *testing.T) {
	if _, err := ComputeConstants(markov.MustNew([][]float64{{1}})); err == nil {
		t.Fatal("single-state chain accepted")
	}
	// A row with a single positive transition leaves p₂ undefined.
	c := markov.MustNew([][]float64{
		{0, 1},
		{0.5, 0.5},
	})
	if _, err := ComputeConstants(c); err == nil {
		t.Fatal("row with one transition accepted")
	}
}

func TestIMAccuracyFormula(t *testing.T) {
	// Uniform chain: Σπ² = 1/L; Eq. 11 becomes 1/L + (1/N)(1−1/L).
	L := 10
	p := make([][]float64, L)
	for i := range p {
		row := make([]float64, L)
		for j := range row {
			row[j] = 1 / float64(L)
		}
		p[i] = row
	}
	c := markov.MustNew(p)
	for _, n := range []int{2, 5, 10} {
		got, err := IMAccuracy(c, n)
		if err != nil {
			t.Fatal(err)
		}
		want := 0.1 + (1-0.1)/float64(n)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("IMAccuracy(N=%d) = %v, want %v", n, got, want)
		}
	}
	if _, err := IMAccuracy(c, 1); err == nil {
		t.Fatal("N=1 accepted")
	}
	lim, err := IMAccuracyLimit(c)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lim-0.1) > 1e-9 {
		t.Fatalf("limit = %v, want 0.1", lim)
	}
}

func TestIMAccuracyMonotoneInN(t *testing.T) {
	c, err := mobility.Build(mobility.ModelSpatiallySkewed, rng.New(1), 10)
	if err != nil {
		t.Fatal(err)
	}
	prev := 2.0
	for n := 2; n <= 16; n++ {
		acc, err := IMAccuracy(c, n)
		if err != nil {
			t.Fatal(err)
		}
		if acc >= prev {
			t.Fatalf("P_IM not decreasing: P(N=%d)=%v >= P(N=%d)=%v", n, acc, n-1, prev)
		}
		prev = acc
	}
	lim, _ := IMAccuracyLimit(c)
	if prev < lim {
		t.Fatalf("P_IM(16)=%v below the N→∞ limit %v", prev, lim)
	}
}

func TestInducedCMLChain(t *testing.T) {
	c, err := mobility.Build(mobility.ModelNonSkewed, rng.New(7), 6)
	if err != nil {
		t.Fatal(err)
	}
	ic, err := NewInducedCML(c)
	if err != nil {
		t.Fatal(err)
	}
	if got := ic.Chain.NumStates(); got != 36 {
		t.Fatalf("induced states = %d, want 36", got)
	}
	if got := ic.StateIndex(2, 3); got != 2*6+3 {
		t.Fatalf("StateIndex = %d", got)
	}
	mu, delta, err := ic.Drift()
	if err != nil {
		t.Fatal(err)
	}
	// The chaff plays (near-)optimal moves while the user plays random
	// ones: the drift must favour the chaff (µ > 0) on model (a).
	if mu <= 0 {
		t.Fatalf("µ = %v, want > 0 on the non-skewed model", mu)
	}
	if delta <= 0 {
		t.Fatalf("δ = %v, want > 0", delta)
	}
}

func TestInducedCMLDriftMatchesSimulation(t *testing.T) {
	// The analytic E[c_t] from the induced chain must match the empirical
	// mean of c_t from simulating CML (they are the same quantity).
	c, err := mobility.Build(mobility.ModelNonSkewed, rng.New(3), 8)
	if err != nil {
		t.Fatal(err)
	}
	ic, err := NewInducedCML(c)
	if err != nil {
		t.Fatal(err)
	}
	mu, _, err := ic.Drift()
	if err != nil {
		t.Fatal(err)
	}
	// Empirical: long CML episode.
	rng := rng.New(4)
	user, err := c.Sample(rng, 60000)
	if err != nil {
		t.Fatal(err)
	}
	pi := c.MustSteadyState()
	chaffLoc := markov.ArgmaxDistExcluding(pi, func(x int) bool { return x == user[0] })
	sum, n := 0.0, 0
	for t := 1; t < len(user); t++ {
		next := c.MaxProbSuccessorExcluding(chaffLoc, func(x int) bool { return x == user[t] })
		if next < 0 {
			next = c.MaxProbSuccessor(chaffLoc)
		}
		sum += c.LogProb(user[t-1], user[t]) - c.LogProb(chaffLoc, next)
		n++
		chaffLoc = next
	}
	empirical := -(sum / float64(n))
	if math.Abs(empirical-mu) > 0.05*math.Abs(mu)+0.02 {
		t.Fatalf("analytic µ=%v vs empirical µ=%v", mu, empirical)
	}
}

// boundedChain has transition probabilities bounded well away from zero,
// making the Eq. 21/24 concentration constants tight enough for the bounds
// to become non-vacuous at moderate horizons.
func boundedChain() *markov.Chain {
	return markov.MustNew([][]float64{
		{0.5, 0.3, 0.2},
		{0.2, 0.5, 0.3},
		{0.3, 0.2, 0.5},
	})
}

func TestTheoremV4(t *testing.T) {
	c := boundedChain()
	short, err := TheoremV4(c, 500, 0.01, 10000)
	if err != nil {
		t.Fatal(err)
	}
	long, err := TheoremV4(c, 4000, 0.01, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if !long.Holds {
		t.Fatalf("Theorem V.4 condition fails at T=4000: %+v", long)
	}
	if long.Bound >= 1 {
		t.Fatalf("bound at T=4000 vacuous: %v", long.Bound)
	}
	if short.Holds && long.Bound >= short.Bound {
		t.Fatalf("bound not decaying with T: T=500 → %v, T=4000 → %v", short.Bound, long.Bound)
	}
	if _, err := TheoremV4(c, 1, 0.05, 1000); err == nil {
		t.Fatal("T=1 accepted")
	}
	// The model (a) random matrix has p_min ≈ 1e-3, which blows up
	// c_min: the condition holds but the bound is vacuous at T=100
	// (exactly the regime where the paper relies on simulation instead).
	ra, err := mobility.Build(mobility.ModelNonSkewed, rng.New(11), 10)
	if err != nil {
		t.Fatal(err)
	}
	loose, err := TheoremV4(ra, 100, 0.05, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if !loose.Holds {
		t.Fatalf("drift condition should hold on model (a): %+v", loose)
	}
}

func TestEstimateMODrift(t *testing.T) {
	c, err := mobility.Build(mobility.ModelNonSkewed, rng.New(5), 10)
	if err != nil {
		t.Fatal(err)
	}
	mu, delta, err := EstimateMODrift(c, rng.New(6), 40, 100)
	if err != nil {
		t.Fatal(err)
	}
	if mu <= 0 {
		t.Fatalf("µ′ = %v, want > 0 (MO must out-likelihood a random user)", mu)
	}
	if delta <= 0 {
		t.Fatalf("δ′ = %v, want > 0", delta)
	}
	if _, _, err := EstimateMODrift(c, rng.New(1), 0, 100); err == nil {
		t.Fatal("episodes=0 accepted")
	}
}

func TestTheoremV5(t *testing.T) {
	c := boundedChain()
	res, err := TheoremV5(c, rng.New(22), 4000, 0.01, 10000, 30)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Holds {
		t.Fatalf("Theorem V.5 condition fails at T=4000: %+v", res)
	}
	if res.PerSlotBound <= 0 || res.PerSlotBound >= 1 {
		t.Fatalf("per-slot bound = %v, want in (0,1)", res.PerSlotBound)
	}
	if res.OverallBound <= 0 || res.OverallBound > 1 {
		t.Fatalf("overall bound = %v, want in (0,1]", res.OverallBound)
	}
	if res.T0 > 4000 || res.T0 <= res.WPrime {
		t.Fatalf("T0 = %d out of range", res.T0)
	}
	if _, err := TheoremV5(c, rng.New(1), 2, 0.05, 100, 5); err == nil {
		t.Fatal("T=2 accepted")
	}
}

// BenchmarkInducedChainDrift times building the CML-induced chain of a
// 10-cell non-skewed model and solving its drift.
func BenchmarkInducedChainDrift(b *testing.B) {
	chain, err := mobility.Build(mobility.ModelNonSkewed, rng.New(99), 10)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ic, err := NewInducedCML(chain)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := ic.Drift(); err != nil {
			b.Fatal(err)
		}
	}
}
