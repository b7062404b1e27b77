package chaff

import (
	"errors"
	"testing"

	"chaffmec/internal/markov"
	"chaffmec/internal/rng"
	"chaffmec/internal/trellis"
)

// TestInfeasibleDrawSurfacesTypedError pins a draw (found by
// testing/quick) where a small chain with T=2 and 3 RML chaffs
// over-constrains the trellis: the failure must surface as
// trellis.ErrInfeasible through the strategy's wrap chain, so callers
// can distinguish legitimate infeasibility from real errors.
func TestInfeasibleDrawSurfacesTypedError(t *testing.T) {
	r := rng.New(1230569605023497352)
	c := randomChain(r, 3+r.Intn(6))
	T := 2 + r.Intn(25)
	user, err := c.Sample(r, T)
	if err != nil {
		t.Fatalf("sample: %v", err)
	}
	_, err = NewRML(c).GenerateChaffs(r, user, 3)
	if err == nil {
		t.Skip("draw no longer infeasible (chain sampling changed)")
	}
	if !errors.Is(err, trellis.ErrInfeasible) {
		t.Fatalf("infeasible draw error %v is not trellis.ErrInfeasible", err)
	}
}

// TestOOSeveredTrellisIsInfeasible: exclusions that remove every cell of
// one slot leave the chaff no trajectory at all. OO must say so with
// trellis.ErrInfeasible (as RML does), not index its backpointers with
// a missing source cell.
func TestOOSeveredTrellisIsInfeasible(t *testing.T) {
	c := markov.MustNew([][]float64{{0.5, 0.5}, {0.5, 0.5}})
	user := markov.Trajectory{0, 1, 0}
	excl := trellis.NewExclusionSet()
	excl.Add(0, 1)
	excl.Add(1, 1)
	if res, err := (&OO{chain: c, excl: excl}).Plan(user); !errors.Is(err, trellis.ErrInfeasible) {
		t.Fatalf("Plan on a severed trellis = (%v, %v), want trellis.ErrInfeasible", res, err)
	}

	// ROO cuts the same trellis once its second chaff's exclusions take
	// both cells of a slot from the user and the first chaff.
	roo := NewROO(c)
	roo.Pairs = 3
	severed := 0
	for seed := int64(0); seed < 20; seed++ {
		_, err := roo.GenerateChaffs(rng.New(seed), user, 2)
		if err == nil {
			continue
		}
		if !errors.Is(err, trellis.ErrInfeasible) {
			t.Fatalf("seed %d: ROO error %v is not trellis.ErrInfeasible", seed, err)
		}
		severed++
	}
	if severed == 0 {
		t.Fatal("no ROO draw severed the trellis; the test no longer covers the case")
	}
}

// TestOOGammaWithinErrors: the capped Γ returns exactly Gamma's error,
// whatever the cap, down to within = −1 (no other trajectory observed).
// Invalid input fails before the DP. A severed trellis has no path at
// all, which the Viterbi pass shows before any budget column. An
// impossible user trajectory makes the stop test pass at column 0 for
// any k, so there column 0 decides between a chaff and ErrInfeasible
// even under a cap of −1.
func TestOOGammaWithinErrors(t *testing.T) {
	dense := markov.MustNew([][]float64{{0.5, 0.5}, {0.5, 0.5}})
	excl := trellis.NewExclusionSet()
	excl.Add(0, 1)
	excl.Add(1, 1)
	// Cell 1 has π = 0 and every row moves to cell 0: the only chaff is
	// all zeros, and the user 0→1 is impossible.
	absorbing := markov.MustNew([][]float64{{1, 0}, {1, 0}})
	cases := []struct {
		name string
		s    *OO
		user markov.Trajectory
		// infeasible marks the cases whose error is ErrInfeasible.
		infeasible bool
	}{
		{"empty user", NewOO(dense), markov.Trajectory{}, false},
		{"cell out of range", NewOO(dense), markov.Trajectory{0, 2, 1}, false},
		{"negative cell", NewOO(dense), markov.Trajectory{-1}, false},
		{"severed trellis", &OO{chain: dense, excl: excl}, markov.Trajectory{0, 1, 0}, true},
		{"impossible user, no path avoiding it", NewOO(absorbing), markov.Trajectory{0, 1}, true},
		{"impossible start, no path avoiding it", NewOO(absorbing), markov.Trajectory{1, 0, 0}, true},
	}
	for _, tc := range cases {
		_, want := tc.s.Gamma(tc.user)
		if want == nil || errors.Is(want, trellis.ErrInfeasible) != tc.infeasible {
			t.Fatalf("%s: Gamma error %v, want an error (ErrInfeasible: %v)", tc.name, want, tc.infeasible)
		}
		for within := -1; within <= len(tc.user); within++ {
			got, err := tc.s.GammaWithin(tc.user, within)
			if err == nil || err.Error() != want.Error() || errors.Is(err, trellis.ErrInfeasible) != tc.infeasible {
				t.Fatalf("%s, within %d: GammaWithin = (%v, %v), want Gamma's error %v", tc.name, within, got, err, want)
			}
		}
	}
}
