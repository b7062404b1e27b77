package chaff

import (
	"testing"

	"chaffmec/internal/markov"
	"chaffmec/internal/rng"
)

// checkWithin asserts, for every cap in [−1, T], that GammaWithin(v)
// decides "u = Γ(v)" as Plan's full Γ does for every candidate u that
// co-locates with v at most cap times, returns that Γ whenever it
// returns one, and misses only when i* exceeds the cap. It also asserts
// the lemma the cap relies on: Γ(v) co-locates with v exactly i* times.
// Errors must be Plan's, message for message.
func checkWithin(t testing.TB, what string, s *OO, v markov.Trajectory, cands []markov.Trajectory) {
	t.Helper()
	res, err := s.Plan(v)
	if err == nil && res.Chaff.Intersections(v) != res.Intersections {
		t.Fatalf("%s: Γ(v) co-locates with v %d times, Intersections = %d", what, res.Chaff.Intersections(v), res.Intersections)
	}
	for within := -1; within <= len(v); within++ {
		got, gerr := s.GammaWithin(v, within)
		switch {
		case (err != nil) != (gerr != nil) || err != nil && err.Error() != gerr.Error():
			t.Fatalf("%s, within %d: GammaWithin error %v, Plan error %v", what, within, gerr, err)
		case err != nil:
			continue
		case got != nil && !got.Equal(res.Chaff):
			t.Fatalf("%s, within %d: GammaWithin = %v, Γ(v) = %v", what, within, got, res.Chaff)
		case got == nil && res.Intersections <= within:
			t.Fatalf("%s, within %d: GammaWithin missed, but i* = %d", what, within, res.Intersections)
		}
		for _, u := range cands {
			if u.Intersections(v) > within {
				continue
			}
			if capped, full := got != nil && got.Equal(u), res.Chaff.Equal(u); capped != full {
				t.Fatalf("%s, within %d: capped says u = Γ(v) is %v, full Γ says %v\nu %v\nv %v", what, within, capped, full, u, v)
			}
		}
	}
}

// ooWithinDifferential checks GammaWithin against the full Γ on one
// drawn chain (L cells, dense or sparse) at horizon T, with and without
// ROO-style exclusions (pairs per fixed trajectory). The inputs v are a
// sampled user, its chaff and a uniformly drawn trajectory, which a
// sparse chain may make impossible. The candidates u are those three,
// Γ(v) itself and Γ(v) with one slot moved.
func ooWithinDifferential(t testing.TB, seed int64, L, T, pairs int) {
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
	uniform := make(markov.Trajectory, T)
	for i := range uniform {
		uniform[i] = r.Intn(L)
	}
	plain := NewOO(c)
	chaff, err := plain.Gamma(user)
	if err != nil {
		t.Fatal(err)
	}
	excl := &OO{chain: c, excl: drawExclusions(r, []markov.Trajectory{user, chaff}, pairs)}
	for _, s := range []*OO{plain, excl} {
		for _, v := range []markov.Trajectory{user, chaff, uniform} {
			cands := []markov.Trajectory{user, chaff, uniform}
			if g, err := s.Gamma(v); err == nil {
				moved := g.Clone()
				moved[r.Intn(T)] = r.Intn(L)
				cands = append(cands, g, moved)
			}
			what := "plain"
			if s.excl != nil {
				what = "exclusions"
			}
			checkWithin(t, what, s, v, cands)
		}
	}
}

func TestOOGammaWithinMatchesGamma(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		r := rng.New(rng.Derive(seed, 1))
		ooWithinDifferential(t, seed, 2+r.Intn(8), 1+r.Intn(40), 1+r.Intn(4))
	}
}

func FuzzOOGammaWithin(f *testing.F) {
	f.Add(int64(0), uint8(0), uint8(0), uint8(0))
	f.Add(int64(7), uint8(8), uint8(39), uint8(3))
	f.Add(int64(-3), uint8(1), uint8(12), uint8(7))
	f.Fuzz(func(t *testing.T, seed int64, cells, horizon, pairs uint8) {
		ooWithinDifferential(t, seed, 2+int(cells%8), 1+int(horizon%40), 1+int(pairs%8))
	})
}
