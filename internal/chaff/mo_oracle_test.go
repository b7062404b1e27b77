package chaff

import (
	"math"
	"math/rand"
	"testing"

	"chaffmec/internal/markov"
	"chaffmec/internal/rng"
)

// moScore returns the move-scoring function for one slot: log π(·) at the
// first slot (chaffPrev < 0) and log P(·|chaffPrev) afterwards, together
// with the candidate move set.
func moScore(c *markov.Chain, pi []float64, chaffPrev int) (score func(int) float64, candidates []int) {
	if chaffPrev < 0 {
		cand := make([]int, 0, len(pi))
		for x, p := range pi {
			if p > 0 {
				cand = append(cand, x)
			}
		}
		return func(x int) float64 { return math.Log(pi[x]) }, cand
	}
	return func(x int) float64 { return c.LogProb(chaffPrev, x) }, c.Successors(chaffPrev)
}

// moStepOracle is the Algorithm 2 step MO ran before the ranked tables:
// it scans every candidate, in index order, for the best and then the
// second-best cell. It is the differential oracle for moTables.step.
func moStepOracle(c *markov.Chain, pi []float64, gammaPrev float64, userPrev, userLoc, chaffPrev int, excluded func(int) bool) (int, float64) {
	score, candidates := moScore(c, pi, chaffPrev)

	argmax := func(skip func(int) bool) int {
		best, bestV := -1, math.Inf(-1)
		for _, x := range candidates {
			if skip != nil && skip(x) {
				continue
			}
			if v := score(x); v > bestV {
				best, bestV = x, v
			}
		}
		return best
	}

	x1 := argmax(excluded)
	if x1 < 0 {
		x1 = argmax(nil)
	}

	var incUser float64
	if userPrev < 0 {
		incUser = safeLogAt(pi, userLoc)
	} else {
		incUser = c.LogProb(userPrev, userLoc)
	}

	choose := x1
	if x1 == userLoc {
		x2 := argmax(func(x int) bool {
			return x == userLoc || (excluded != nil && excluded(x))
		})
		if x2 >= 0 && gammaPrev+incUser-score(x2) <= 0 {
			choose = x2
		}
	}
	return choose, gammaPrev + incUser - score(choose)
}

func safeLogAt(pi []float64, x int) float64 {
	if pi[x] <= 0 {
		return math.Inf(-1)
	}
	return math.Log(pi[x])
}

// tiedWeights draws n weights from {0, 1, …, levels}, so equal weights
// (and, once normalised, equal probabilities) are common; zero is drawn
// only when allowZero is set, and at least one weight is positive.
func tiedWeights(r *rand.Rand, n, levels int, allowZero bool) []float64 {
	w := make([]float64, n)
	sum := 0.0
	for i := range w {
		if allowZero {
			w[i] = float64(r.Intn(levels + 1))
		} else {
			w[i] = float64(1 + r.Intn(levels))
		}
		sum += w[i]
	}
	if sum == 0 {
		w[r.Intn(n)] = 1
		sum = 1
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}

// moStepChain draws a chain on n states whose rows keep a random subset
// of successors with probabilities from a few tied levels. Half the
// chains pin a random π, zeros included, through NewWithStationary; the
// rest solve π, falling back to a pinned one for a reducible chain.
func moStepChain(r *rand.Rand, n, levels int) (*markov.Chain, []float64) {
	p := make([][]float64, n)
	for x := range p {
		p[x] = tiedWeights(r, n, levels, r.Intn(2) == 0)
	}
	if r.Intn(2) == 0 {
		if c, err := markov.New(p); err == nil {
			if pi, err := c.SteadyState(); err == nil {
				return c, pi
			}
		}
	}
	c, err := markov.NewWithStationary(p, tiedWeights(r, n, levels, true))
	if err != nil {
		panic(err)
	}
	pi, err := c.SteadyState()
	if err != nil {
		panic(err)
	}
	return c, pi
}

// moStepDifferential checks the table step against the oracle on one
// drawn chain for many random slots: first and later slots, a user cell
// that is not a successor of the user's previous cell, γ from a set that
// includes ±Inf, and no exclusions, a random mask, every cell but one, or
// every cell.
func moStepDifferential(t testing.TB, seed int64, n, levels int) {
	t.Helper()
	r := rng.New(seed)
	c, pi := moStepChain(r, n, levels)
	m, err := newMOTables(c)
	if err != nil {
		t.Fatal(err)
	}
	gammas := []float64{0, 0.5, -0.5, 1e-12, -3, math.Log(2), math.Inf(1), math.Inf(-1)}
	for k := 0; k < 64; k++ {
		userPrev, chaffPrev := r.Intn(n+1)-1, r.Intn(n+1)-1
		userLoc := r.Intn(n)
		gamma := gammas[r.Intn(len(gammas))]
		var mask uint64
		switch r.Intn(4) {
		case 1:
			mask = r.Uint64()
		case 2:
			mask = ^uint64(0) &^ (1 << r.Intn(n))
		case 3:
			mask = ^uint64(0)
		}
		var excluded func(int) bool
		if mask != 0 {
			excluded = func(x int) bool { return mask&(1<<x) != 0 }
		}
		wantLoc, wantGamma := moStepOracle(c, pi, gamma, userPrev, userLoc, chaffPrev, excluded)
		gotLoc, gotGamma := m.step(gamma, userPrev, userLoc, chaffPrev, excluded)
		if gotLoc != wantLoc || math.Float64bits(gotGamma) != math.Float64bits(wantGamma) {
			t.Fatalf("chain %v π %v\nγ=%v userPrev=%d userLoc=%d chaffPrev=%d mask=%#x:\nstep (%d, %v), oracle (%d, %v)",
				c.Matrix(), pi, gamma, userPrev, userLoc, chaffPrev, mask, gotLoc, gotGamma, wantLoc, wantGamma)
		}
	}
}

func TestMOStepMatchesOracle(t *testing.T) {
	for seed := int64(0); seed < 500; seed++ {
		r := rng.New(^seed)
		moStepDifferential(t, seed, 1+r.Intn(9), 1+r.Intn(4))
	}
}

func FuzzMOStep(f *testing.F) {
	f.Add(int64(0), uint8(1), uint8(0))
	f.Add(int64(7), uint8(8), uint8(1))
	f.Add(int64(-3), uint8(4), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, cells, levels uint8) {
		moStepDifferential(t, seed, 1+int(cells%9), 1+int(levels%4))
	})
}
