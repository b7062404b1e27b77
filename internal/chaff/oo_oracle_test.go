package chaff

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"chaffmec/internal/markov"
	"chaffmec/internal/rng"
	"chaffmec/internal/trellis"
)

// doublingInitialCap is the doubling planner's first budget-axis size.
const doublingInitialCap = 8

// planDoubling is the doubling planner OO.Plan used before the
// budget-major rewrite: it reruns the whole DP with the budget axis
// doubled (8, 16, 32, …, T) until i* fits. It is the differential oracle
// for Plan; it panics on a fully severed trellis, so callers skip those
// inputs.
func planDoubling(s *OO, user markov.Trajectory) (*OOResult, error) {
	T := len(user)
	if T == 0 {
		return nil, fmt.Errorf("chaff: empty user trajectory")
	}
	if err := user.Validate(s.chain.NumStates()); err != nil {
		return nil, err
	}
	userLL, err := s.chain.LogLikelihood(user)
	if err != nil {
		return nil, err
	}
	userCost := -userLL
	cap0 := doublingInitialCap
	if cap0 > T {
		cap0 = T
	}
	for budgetCap := cap0; ; budgetCap *= 2 {
		if budgetCap > T {
			budgetCap = T
		}
		res, ok, err := doublingPass(s, user, userCost, budgetCap)
		if err != nil {
			return nil, err
		}
		if ok {
			return res, nil
		}
		if budgetCap == T {
			return nil, fmt.Errorf("chaff: OO found no feasible chaff trajectory (horizon %d)", T)
		}
	}
}

// doublingPass runs the DP with co-location budgets 0..budgetCap. It
// reports ok=false when a larger budget axis is needed.
func doublingPass(s *OO, user markov.Trajectory, userCost float64, budgetCap int) (*OOResult, bool, error) {
	c := s.chain
	T := len(user)
	L := c.NumStates()
	nb := budgetCap + 1
	inf := math.Inf(1)
	pi, err := c.SteadyState()
	if err != nil {
		return nil, false, err
	}

	// K_t(x,i): min cost from (slot t, cell x) to the sink visiting the
	// user's path at most i times, counting slot t itself. Two rolling
	// value layers; backpointers kept for every slot.
	cur := make([]float64, L*nb)  // layer t
	next := make([]float64, L*nb) // layer t+1
	back := make([][]int32, T)    // back[t][x*nb+i] = successor cell at t+1
	for t := range back {
		back[t] = make([]int32, L*nb)
	}
	at := func(x, i int) int { return x*nb + i }

	// Base layer t = T-1.
	for x := 0; x < L; x++ {
		for i := 0; i < nb; i++ {
			v := 0.0
			if s.excl.Excluded(x, T-1) || (x == user[T-1] && i == 0) {
				v = inf
			}
			cur[at(x, i)] = v
			back[T-1][at(x, i)] = -1
		}
	}

	// Backward induction t = T-2 .. 0.
	for t := T - 2; t >= 0; t-- {
		cur, next = next, cur // cur becomes the layer being filled
		for x := 0; x < L; x++ {
			excluded := s.excl.Excluded(x, t)
			hit := x == user[t]
			for i := 0; i < nb; i++ {
				idx := at(x, i)
				back[t][idx] = -1
				if excluded {
					cur[idx] = inf
					continue
				}
				j := i
				if hit {
					j = i - 1
				}
				if j < 0 {
					cur[idx] = inf
					continue
				}
				best, bestX := inf, int32(-1)
				for _, xn := range c.Successors(x) {
					nv := next[at(xn, j)]
					if math.IsInf(nv, 1) {
						continue
					}
					// Successors ascend, strict < keeps lowest index on tie.
					if v := -c.LogProb(x, xn) + nv; v < best {
						best, bestX = v, int32(xn)
					}
				}
				cur[idx] = best
				back[t][idx] = bestX
			}
		}
	}

	// Virtual source: K0[i] = min_x −log π(x) + K_0layer(x,i).
	k0 := make([]float64, nb)
	n0 := make([]int32, nb)
	for i := 0; i < nb; i++ {
		best, bestX := inf, int32(-1)
		for x := 0; x < L; x++ {
			if pi[x] <= 0 || math.IsInf(cur[at(x, i)], 1) {
				continue
			}
			if v := -math.Log(pi[x]) + cur[at(x, i)]; v < best {
				best, bestX = v, int32(x)
			}
		}
		k0[i] = best
		n0[i] = bestX
	}

	tol := 1e-9 * (1 + math.Abs(userCost))
	minCost := k0[budgetCap] // k0 is non-increasing in i
	strict := minCost < userCost-tol

	iStar := -1
	if strict {
		for i := 0; i < nb; i++ {
			if k0[i] < userCost-tol {
				iStar = i
				break
			}
		}
	} else {
		if budgetCap < T {
			// A larger budget might still unlock a strictly better path.
			return nil, false, nil
		}
		// Equality fallback (detector coin flip), or — under exclusions
		// that sever every path at least as likely as the user's — the
		// best-achievable-likelihood fallback.
		for i := 0; i < nb; i++ {
			if k0[i] <= minCost+tol {
				iStar = i
				break
			}
		}
	}
	if iStar < 0 {
		return nil, false, nil
	}

	// Reconstruction (paper steps 1–2 after Algorithm 1, 0-indexed).
	tr := make(markov.Trajectory, T)
	tr[0] = int(n0[iStar])
	budget := iStar
	// Replay the DP's layer values are gone, but backpointers suffice:
	// back[t] was filled for layer t with the budget held at slot t.
	for t := 1; t < T; t++ {
		nh := back[t-1][at(tr[t-1], budget)]
		if nh < 0 {
			return nil, false, fmt.Errorf("chaff: OO reconstruction hit a dead end at slot %d", t)
		}
		if tr[t-1] == user[t-1] {
			budget--
		}
		tr[t] = int(nh)
	}
	return &OOResult{
		Chaff:         tr,
		Intersections: iStar,
		Strict:        strict,
		ChaffCost:     k0[iStar],
		UserCost:      userCost,
	}, true, nil
}

// planDoublingSafe runs the oracle, reporting a panic instead of
// propagating it.
func planDoublingSafe(s *OO, user markov.Trajectory) (res *OOResult, panicked bool, err error) {
	defer func() {
		if recover() != nil {
			res, panicked, err = nil, true, nil
		}
	}()
	res, err = planDoubling(s, user)
	return res, false, err
}

// checkMatchesDoubling asserts that Plan returns every OOResult field
// bit for bit as the doubling oracle does. On a fully severed trellis the
// oracle starts its chaff at cell −1: it panics, or at T=1 returns that
// cell. There Plan must return trellis.ErrInfeasible instead.
func checkMatchesDoubling(t testing.TB, what string, s *OO, user markov.Trajectory) {
	t.Helper()
	want, panicked, wantErr := planDoublingSafe(s, user)
	got, err := s.Plan(user)
	switch {
	case panicked || wantErr == nil && want.Chaff[0] < 0:
		if !errors.Is(err, trellis.ErrInfeasible) {
			t.Fatalf("%s: severed trellis, Plan returned (%v, %v), want trellis.ErrInfeasible", what, got, err)
		}
		return
	case (err != nil) != (wantErr != nil):
		t.Fatalf("%s: Plan error %v, oracle error %v", what, err, wantErr)
	case err != nil:
		return
	}
	if !got.Chaff.Equal(want.Chaff) || got.Intersections != want.Intersections || got.Strict != want.Strict ||
		math.Float64bits(got.ChaffCost) != math.Float64bits(want.ChaffCost) ||
		math.Float64bits(got.UserCost) != math.Float64bits(want.UserCost) {
		t.Fatalf("%s: user %v\nPlan   %+v\noracle %+v", what, user, *got, *want)
	}
}

// sparseChain returns a random ergodic chain on n states whose rows keep
// a random subset of successors: the cycle edge x→x+1 keeps it
// irreducible and a self-loop on state 0 keeps it aperiodic. Missing
// transitions make cells of the trellis unreachable.
func sparseChain(r *rand.Rand, n int) *markov.Chain {
	p := make([][]float64, n)
	for x := range p {
		row := make([]float64, n)
		row[(x+1)%n] = r.Float64() + 1e-3
		if x == 0 {
			row[0] = r.Float64() + 1e-3
		}
		for y := range row {
			if r.Intn(3) == 0 {
				row[y] = r.Float64() + 1e-3
			}
		}
		sum := 0.0
		for _, v := range row {
			sum += v
		}
		for y := range row {
			row[y] /= sum
		}
		p[x] = row
	}
	return markov.MustNew(p)
}

// ooDifferential checks Plan against the oracle on one drawn chain
// (L cells, dense or sparse) at horizon T, for four kinds of input: a
// sampled user, the ML user (the equality fallback), Γ(Γ(user)) (the
// chaff planned as the user) and, with pairs exclusions per fixed
// trajectory as ROO draws them, the sampled user on a cut trellis.
func ooDifferential(t testing.TB, seed int64, L, T, pairs int) {
	t.Helper()
	r := rng.New(seed)
	c := randomChain(r, L)
	if r.Intn(2) == 0 {
		c = sparseChain(r, L)
	}
	user, err := c.Sample(r, T)
	if err != nil {
		t.Fatal(err)
	}
	s := NewOO(c)
	checkMatchesDoubling(t, "sampled user", s, user)
	ml, _, err := trellis.MLTrajectory(c, T, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkMatchesDoubling(t, "ML user", s, ml)
	chaff, err := s.Gamma(user)
	if err != nil {
		t.Fatal(err)
	}
	checkMatchesDoubling(t, "Γ(Γ(user))", s, chaff)
	fixed := []markov.Trajectory{user, chaff}
	checkMatchesDoubling(t, "exclusions", &OO{chain: c, excl: drawExclusions(r, fixed, pairs)}, user)
}

func TestOOBudgetMajorMatchesDoubling(t *testing.T) {
	for seed := int64(0); seed < 400; seed++ {
		r := rng.New(^seed)
		ooDifferential(t, seed, 2+r.Intn(8), 1+r.Intn(40), 1+r.Intn(4))
	}
}

func FuzzOOPlan(f *testing.F) {
	f.Add(int64(0), uint8(0), uint8(2), uint8(0))
	f.Add(int64(7), uint8(8), uint8(39), uint8(3))
	f.Add(int64(-3), uint8(1), uint8(12), uint8(7))
	f.Fuzz(func(t *testing.T, seed int64, cells, horizon, pairs uint8) {
		ooDifferential(t, seed, 2+int(cells%8), 1+int(horizon%40), 1+int(pairs%8))
	})
}
