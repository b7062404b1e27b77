package detect

import (
	"testing"

	"chaffmec/internal/chaff"
	"chaffmec/internal/markov"
	"chaffmec/internal/mobility"
	"chaffmec/internal/rng"
)

// advancedWorkload returns the advanced eavesdropper workload's chain
// (spatially skewed, L=10, model seed 2017), OO on it, and the observed
// sets of n runs at T=100: a sampled user and its OO chaff, plus extra
// trajectories — other sampled users, or a replica of the chaff as N−1
// = 2 deterministic chaffs give.
func advancedWorkload(tb testing.TB, n, others int, replica bool) (*markov.Chain, *chaff.OO, [][]markov.Trajectory) {
	tb.Helper()
	c, err := mobility.Build(mobility.ModelSpatiallySkewed, rng.New(2017), 10)
	if err != nil {
		tb.Fatal(err)
	}
	oo := chaff.NewOO(c)
	r := rng.New(1)
	runs := make([][]markov.Trajectory, n)
	for i := range runs {
		user, err := c.Sample(r, 100)
		if err != nil {
			tb.Fatal(err)
		}
		ch, err := oo.Gamma(user)
		if err != nil {
			tb.Fatal(err)
		}
		trs := []markov.Trajectory{user, ch}
		if replica {
			trs = append(trs, ch.Clone())
		}
		for k := 0; k < others; k++ {
			o, err := c.Sample(r, 100)
			if err != nil {
				tb.Fatal(err)
			}
			trs = append(trs, o)
		}
		runs[i] = trs
	}
	return c, oo, runs
}

// TestCappedSurvivorsMatchPlain: the capped filter keeps exactly the
// trajectories the full-Γ filter keeps, on the workload's two-trajectory
// runs, with replicated chaffs (cap T) and with other users, where the
// cap is a max over many candidates.
func TestCappedSurvivorsMatchPlain(t *testing.T) {
	for _, tc := range []struct {
		name    string
		others  int
		replica bool
	}{{"user+chaff", 0, false}, {"replicated chaff", 0, true}, {"other users", 4, false}} {
		c, oo, runs := advancedWorkload(t, 24, tc.others, tc.replica)
		plain, err := NewAdvancedDetector(c, oo.Gamma)
		if err != nil {
			t.Fatal(err)
		}
		capped, err := NewCappedAdvancedDetector(c, oo.GammaWithin)
		if err != nil {
			t.Fatal(err)
		}
		for i, trs := range runs {
			want, err := plain.Survivors(trs)
			if err != nil {
				t.Fatal(err)
			}
			got, err := capped.Survivors(trs)
			if err != nil {
				t.Fatal(err)
			}
			for u := range want {
				if got[u] != want[u] {
					t.Fatalf("%s run %d: capped survivors %v, full-Γ survivors %v", tc.name, i, got, want)
				}
			}
		}
	}
}

func TestCappedAdvancedDetectorNilGamma(t *testing.T) {
	c := markov.MustNew([][]float64{{0.5, 0.5}, {0.5, 0.5}})
	if _, err := NewCappedAdvancedDetector(c, nil); err == nil {
		t.Fatal("nil capped Γ accepted")
	}
}

// BenchmarkAdvancedSurvivors times the advanced eavesdropper's filter
// on one run of the OO workload shape (L=10, T=100, user and one chaff):
// Γ(user) and Γ(chaff), capped as the detector calls them and full.
func BenchmarkAdvancedSurvivors(b *testing.B) {
	c, oo, runs := advancedWorkload(b, 64, 0, false)
	for _, bc := range []struct {
		name  string
		gamma CappedGammaFunc
	}{
		{"capped", oo.GammaWithin},
		{"full", func(u markov.Trajectory, _ int) (markov.Trajectory, error) { return oo.Gamma(u) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			d, err := NewCappedAdvancedDetector(c, bc.gamma)
			if err != nil {
				b.Fatal(err)
			}
			include := make([]bool, 2)
			b.ReportAllocs()
			i := 0
			for b.Loop() {
				if _, err := d.survivorsInto(include, runs[i%len(runs)]); err != nil {
					b.Fatal(err)
				}
				i++
			}
		})
	}
}
