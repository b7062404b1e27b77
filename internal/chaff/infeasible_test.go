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
