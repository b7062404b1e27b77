package markov

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"chaffmec/internal/rng"
)

// twoState returns the classic two-state chain with P(1|0)=a, P(0|1)=b,
// whose stationary distribution is (b/(a+b), a/(a+b)).
func twoState(a, b float64) *Chain {
	return MustNew([][]float64{
		{1 - a, a},
		{b, 1 - b},
	})
}

// randomChain builds a dense random chain for property tests.
func randomChain(rng *rand.Rand, n int) *Chain {
	p := make([][]float64, n)
	for i := range p {
		row := make([]float64, n)
		sum := 0.0
		for j := range row {
			row[j] = rng.Float64() + 1e-9
			sum += row[j]
		}
		for j := range row {
			row[j] /= sum
		}
		p[i] = row
	}
	return MustNew(p)
}

func TestNewValidation(t *testing.T) {
	tests := []struct {
		name string
		p    [][]float64
	}{
		{"empty", nil},
		{"ragged", [][]float64{{1}, {0.5, 0.5}}},
		{"negative", [][]float64{{1.5, -0.5}, {0.5, 0.5}}},
		{"nan", [][]float64{{math.NaN(), 1}, {0.5, 0.5}}},
		{"not stochastic", [][]float64{{0.5, 0.4}, {0.5, 0.5}}},
		{"over one", [][]float64{{1.2, -0.2}, {0.5, 0.5}}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := New(tc.p); err == nil {
				t.Fatalf("New(%v) succeeded, want error", tc.p)
			}
		})
	}
}

func TestNewCopiesInput(t *testing.T) {
	p := [][]float64{{0.5, 0.5}, {0.25, 0.75}}
	c := MustNew(p)
	p[0][0] = 99
	if got := c.Prob(0, 0); got != 0.5 {
		t.Fatalf("chain mutated through caller slice: P(0|0)=%v", got)
	}
}

func TestSuccessorsAndTransitions(t *testing.T) {
	c := MustNew([][]float64{
		{0, 1, 0},
		{0.5, 0, 0.5},
		{0, 1, 0},
	})
	if got := c.Successors(0); len(got) != 1 || got[0] != 1 {
		t.Fatalf("Successors(0) = %v, want [1]", got)
	}
	if got := c.NumTransitions(); got != 4 {
		t.Fatalf("NumTransitions = %d, want 4", got)
	}
	if !math.IsInf(c.LogProb(0, 0), -1) {
		t.Fatalf("LogProb(0,0) = %v, want -Inf", c.LogProb(0, 0))
	}
}

func TestSteadyStateTwoState(t *testing.T) {
	c := twoState(0.3, 0.1)
	pi, err := c.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	want0, want1 := 0.1/0.4, 0.3/0.4
	if math.Abs(pi[0]-want0) > 1e-9 || math.Abs(pi[1]-want1) > 1e-9 {
		t.Fatalf("steady state = %v, want [%v %v]", pi, want0, want1)
	}
}

func TestSteadyStateIsFixedPoint(t *testing.T) {
	r := rng.New(7)
	f := func(seed int64) bool {
		n := 2 + int(r.Int31n(20))
		c := randomChain(rng.New(seed), n)
		pi := c.MustSteadyState()
		next, err := c.StepDistribution(pi)
		if err != nil {
			return false
		}
		return TotalVariation(pi, next) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSteadyDirectMatchesPower(t *testing.T) {
	rng := rng.New(11)
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(15)
		c := randomChain(rng, n)
		direct, err := steadyDirect(c.n, c.p)
		if err != nil {
			t.Fatalf("direct solve: %v", err)
		}
		power, err := steadyPower(c)
		if err != nil {
			t.Fatalf("power iteration: %v", err)
		}
		if d := TotalVariation(direct, power); d > 1e-8 {
			t.Fatalf("trial %d: direct vs power TV distance %v", trial, d)
		}
	}
}

func TestSteadyStateCached(t *testing.T) {
	c := twoState(0.2, 0.4)
	a := c.MustSteadyState()
	b := c.MustSteadyState()
	a[0] = 42 // returned copies must not alias the cache
	if b[0] == 42 || c.MustSteadyState()[0] == 42 {
		t.Fatal("SteadyState returned aliased slices")
	}
}

func TestSampleMatchesStationary(t *testing.T) {
	c := twoState(0.3, 0.1)
	rng := rng.New(5)
	const T = 200000
	tr, err := c.Sample(rng, T)
	if err != nil {
		t.Fatal(err)
	}
	count0 := 0
	for _, s := range tr {
		if s == 0 {
			count0++
		}
	}
	got := float64(count0) / T
	want := 0.25
	if math.Abs(got-want) > 0.01 {
		t.Fatalf("empirical occupancy of state 0 = %v, want ≈ %v", got, want)
	}
}

func TestSampleErrors(t *testing.T) {
	c := twoState(0.5, 0.5)
	rng := rng.New(1)
	if _, err := c.Sample(rng, 0); err == nil {
		t.Fatal("Sample(T=0) succeeded, want error")
	}
	if _, err := c.SampleFrom(rng, 5, 10); err == nil {
		t.Fatal("SampleFrom with bad start succeeded, want error")
	}
}

func TestLogLikelihood(t *testing.T) {
	c := twoState(0.3, 0.1)
	// π = (0.25, 0.75); trajectory 0→1→1.
	got, err := c.LogLikelihood(Trajectory{0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	want := math.Log(0.25) + math.Log(0.3) + math.Log(0.9)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("LogLikelihood = %v, want %v", got, want)
	}
}

func TestLogLikelihoodImpossible(t *testing.T) {
	c := MustNew([][]float64{{0, 1}, {1, 0}})
	ll, err := c.LogLikelihood(Trajectory{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(ll, -1) {
		t.Fatalf("impossible trajectory has LL %v, want -Inf", ll)
	}
}

func TestMaxProbSuccessorTieBreak(t *testing.T) {
	c := MustNew([][]float64{
		{0.4, 0.4, 0.2},
		{1.0 / 3, 1.0 / 3, 1.0 / 3},
		{0.2, 0.4, 0.4},
	})
	if got := c.MaxProbSuccessor(0); got != 0 {
		t.Fatalf("tie break from 0: got %d, want 0 (lowest index)", got)
	}
	if got := c.MaxProbSuccessor(2); got != 1 {
		t.Fatalf("tie break from 2: got %d, want 1", got)
	}
	excl := func(x int) bool { return x == 0 }
	if got := c.MaxProbSuccessorExcluding(0, excl); got != 1 {
		t.Fatalf("excluding 0: got %d, want 1", got)
	}
	all := func(int) bool { return true }
	if got := c.MaxProbSuccessorExcluding(0, all); got != -1 {
		t.Fatalf("excluding all: got %d, want -1", got)
	}
}

func TestArgmaxDist(t *testing.T) {
	if got := ArgmaxDist([]float64{0.2, 0.5, 0.5}); got != 1 {
		t.Fatalf("ArgmaxDist tie = %d, want 1", got)
	}
	if got := ArgmaxDistExcluding([]float64{0.2, 0.5, 0.3}, func(i int) bool { return i == 1 }); got != 2 {
		t.Fatalf("ArgmaxDistExcluding = %d, want 2", got)
	}
	if got := ArgmaxDistExcluding([]float64{0.5, 0.5}, func(int) bool { return true }); got != -1 {
		t.Fatalf("ArgmaxDistExcluding all = %d, want -1", got)
	}
}

func TestTrajectoryHelpers(t *testing.T) {
	a := Trajectory{1, 2, 3}
	b := Trajectory{1, 5, 3}
	if !a.Equal(a.Clone()) {
		t.Fatal("Equal(clone) = false")
	}
	if a.Equal(b) {
		t.Fatal("Equal on different trajectories = true")
	}
	if a.Equal(Trajectory{1, 2}) {
		t.Fatal("Equal on different lengths = true")
	}
	if got := a.Intersections(b); got != 2 {
		t.Fatalf("Intersections = %d, want 2", got)
	}
	if got := a.String(); got != "1→2→3" {
		t.Fatalf("String = %q", got)
	}
	if err := a.Validate(3); err == nil {
		t.Fatal("Validate(3) on state 3 succeeded, want error")
	}
	if err := a.Validate(4); err != nil {
		t.Fatalf("Validate(4): %v", err)
	}
}

// BenchmarkSteadyState times the stationary solve of a dense 10-cell
// chain, the paper's synthetic size.
func BenchmarkSteadyState(b *testing.B) {
	// Fresh chain each iteration: SteadyState caches per chain.
	p := randomChain(rng.New(99), 10).Matrix()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := New(p)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.SteadyState(); err != nil {
			b.Fatal(err)
		}
	}
}
