package chaff

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"chaffmec/internal/markov"
	"chaffmec/internal/rng"
	"chaffmec/internal/trellis"
)

// TestOOConstraintProperty: for random chains and user trajectories, the
// OO chaff always satisfies constraint (5) (likelihood at least the
// user's, within tolerance) and its reported intersection count is exact.
func TestOOConstraintProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rng.New(seed)
		c := randomChain(rng, 2+rng.Intn(8))
		T := 1 + rng.Intn(40)
		user, err := c.Sample(rng, T)
		if err != nil {
			return false
		}
		res, err := NewOO(c).Plan(user)
		if err != nil {
			return false
		}
		userLL, _ := c.LogLikelihood(user)
		chaffLL, _ := c.LogLikelihood(res.Chaff)
		tol := 1e-8 * (1 + math.Abs(userLL))
		if chaffLL < userLL-tol {
			return false
		}
		if res.Strict && chaffLL <= userLL-tol {
			return false
		}
		return res.Chaff.Intersections(user) == res.Intersections
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestCMLDisjointProperty: on dense random chains, CML never co-locates
// and every move has positive probability.
func TestCMLDisjointProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rng.New(seed)
		c := randomChain(rng, 2+rng.Intn(8))
		T := 1 + rng.Intn(50)
		user, err := c.Sample(rng, T)
		if err != nil {
			return false
		}
		tr, err := NewCML(c).Gamma(user)
		if err != nil {
			return false
		}
		if tr.Intersections(user) != 0 {
			return false
		}
		for slot := 1; slot < T; slot++ {
			if c.Prob(tr[slot-1], tr[slot]) == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestMOGammaConsistencyProperty: MO's γ bookkeeping must equal the
// directly computed log-likelihood gap of the produced trajectories.
func TestMOGammaConsistencyProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rng.New(seed)
		c := randomChain(rng, 2+rng.Intn(6))
		T := 2 + rng.Intn(30)
		user, err := c.Sample(rng, T)
		if err != nil {
			return false
		}
		tr, err := NewMO(c).Gamma(user)
		if err != nil {
			return false
		}
		userLL, _ := c.LogLikelihood(user)
		chaffLL, _ := c.LogLikelihood(tr)
		// Recompute γ_T independently through the step recursion.
		m, err := newMOTables(c)
		if err != nil {
			return false
		}
		gamma := 0.0
		chaffPrev, userPrev := -1, -1
		for slot, u := range user {
			var loc int
			loc, gamma = m.step(gamma, userPrev, u, chaffPrev, nil)
			if loc != tr[slot] {
				return false
			}
			chaffPrev, userPrev = loc, u
		}
		return math.Abs(gamma-(userLL-chaffLL)) < 1e-9*(1+math.Abs(userLL))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestRobustChaffsRespectChainSupport: RML/ROO/RMO chaffs only ever make
// positive-probability moves.
func TestRobustChaffsRespectChainSupport(t *testing.T) {
	f := func(seed int64) bool {
		rng := rng.New(seed)
		c := randomChain(rng, 3+rng.Intn(6))
		T := 2 + rng.Intn(25)
		user, err := c.Sample(rng, T)
		if err != nil {
			return false
		}
		for _, s := range []Strategy{NewRML(c), NewROO(c), NewRMO(c)} {
			chaffs, err := s.GenerateChaffs(rng, user, 3)
			if errors.Is(err, trellis.ErrInfeasible) {
				// A tiny chain can be legitimately over-constrained by the
				// exclusions; nothing to check for this draw.
				continue
			}
			if err != nil {
				return false
			}
			for _, tr := range chaffs {
				for slot := 1; slot < T; slot++ {
					if c.Prob(tr[slot-1], tr[slot]) == 0 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestDistinctStrategiesShareValidation: every registered strategy
// rejects an empty user trajectory and zero chaffs.
func TestDistinctStrategiesShareValidation(t *testing.T) {
	rng := rng.New(1)
	c := randomChain(rng, 5)
	for _, name := range Names() {
		s, err := NewByName(name, c)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.GenerateChaffs(rng, nil, 1); err == nil {
			t.Fatalf("%s accepted an empty user trajectory", name)
		}
		if _, err := s.GenerateChaffs(rng, markov.Trajectory{0, 1}, 0); err == nil {
			t.Fatalf("%s accepted zero chaffs", name)
		}
	}
}
