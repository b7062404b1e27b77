package detect

import (
	"math"
	"math/rand"
	"testing"

	"chaffmec/internal/markov"
	"chaffmec/internal/rng"
)

// fleetChain draws a chain on n states whose rows keep a random subset
// of successors (zero entries make -Inf transitions) with probabilities
// from a few tied levels. Half the chains pin a random π with zeros
// (impossible first cells) through NewWithStationary; the rest solve π,
// falling back to a pinned one for a reducible chain.
func fleetChain(r *rand.Rand, n int) *markov.Chain {
	weights := func() []float64 {
		w := make([]float64, n)
		sum := 0.0
		for i := range w {
			w[i] = float64(r.Intn(3))
			sum += w[i]
		}
		if sum == 0 {
			w[r.Intn(n)], sum = 1, 1
		}
		for i := range w {
			w[i] /= sum
		}
		return w
	}
	p := make([][]float64, n)
	for x := range p {
		p[x] = weights()
	}
	if r.Intn(2) == 0 {
		if c, err := markov.New(p); err == nil {
			if _, err := c.SteadyState(); err == nil {
				return c
			}
		}
	}
	c, err := markov.NewWithStationary(p, weights())
	if err != nil {
		panic(err)
	}
	return c
}

// fleetTrajectory draws one observed trajectory of T slots: a sample of
// the scoring chain, a uniform walk (which takes transitions the chain
// forbids), a copy of an earlier one (a tie), or the chain's greedy
// most-likely walk (which tends to beat every sampled prefix).
func fleetTrajectory(t testing.TB, r *rand.Rand, c *markov.Chain, T int, earlier []markov.Trajectory) markov.Trajectory {
	n := c.NumStates()
	switch k := r.Intn(8); {
	case k < 3:
		tr, err := c.Sample(r, T)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	case k < 5:
		tr := make(markov.Trajectory, T)
		for i := range tr {
			tr[i] = r.Intn(n)
		}
		return tr
	case k < 7 && len(earlier) > 0:
		return earlier[r.Intn(len(earlier))].Clone()
	default:
		pi, err := c.SteadyState()
		if err != nil {
			t.Fatal(err)
		}
		tr := make(markov.Trajectory, T)
		tr[0] = argmaxFirst(pi)
		for i := 1; i < T; i++ {
			tr[i] = argmaxFirst(c.Row(tr[i-1]))
		}
		return tr
	}
}

func argmaxFirst(w []float64) int {
	best := 0
	for i, v := range w {
		if v > w[best] {
			best = i
		}
	}
	return best
}

// fleetTrackDifferential draws a chain, a fleet and B runs of chaffs,
// and checks Fleet.Track against the ML block scorer on the block that
// packs the fleet, then each run's chaffs: the tracking bits must match
// for every run and slot.
func fleetTrackDifferential(t testing.TB, seed int64, n, members, chaffs, B, T, user int) {
	t.Helper()
	r := rng.New(seed)
	c := fleetChain(r, n)
	fleet := make([]markov.Trajectory, members)
	for u := range fleet {
		fleet[u] = fleetTrajectory(t, r, c, T, fleet[:u])
	}
	runs := make([][]markov.Trajectory, B)
	for b := range runs {
		trs := append([]markov.Trajectory(nil), fleet...)
		for i := 0; i < chaffs; i++ {
			trs = append(trs, fleetTrajectory(t, r, c, T, trs))
		}
		runs[b] = trs
	}
	f, err := NewFleet(c, fleet)
	if err != nil {
		t.Fatal(err)
	}
	det := NewMLDetector(c)
	ws := NewWorkspace()
	blk := ws.Block(B, members+chaffs, T)
	for b, trs := range runs {
		for u, tr := range trs {
			if err := blk.SetTrajectory(b, u, tr); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := det.ScoreBlock(blk, user); err != nil {
		t.Fatal(err)
	}
	ll := make([]float64, chaffs)
	got := make([]float64, T)
	for b, trs := range runs {
		if err := f.Track(user, trs[members:], ll, got); err != nil {
			t.Fatal(err)
		}
		want := blk.Tracking(b)
		for s := range got {
			if math.Float64bits(got[s]) != math.Float64bits(want[s]) {
				t.Fatalf("seed %d chain %v\nfleet %v\nchaffs %v user %d: slot %d: Track %v, ScoreBlock %v",
					seed, c.Matrix(), fleet, trs[members:], user, s, got[s], want[s])
			}
		}
	}
}

func TestFleetTrackMatchesScoreBlock(t *testing.T) {
	for seed := int64(0); seed < 400; seed++ {
		r := rng.New(^seed)
		members := 1 + r.Intn(8)
		fleetTrackDifferential(t, seed, 1+r.Intn(6), members, r.Intn(5), 1+r.Intn(4), 1+r.Intn(12), r.Intn(members))
	}
	// A fleet wide enough that the block scorer splits a run tile.
	fleetTrackDifferential(t, 1, 5, 700, 4, 6, 9, 3)
}

func FuzzFleetTrack(f *testing.F) {
	f.Add(int64(0), uint8(3), uint8(4), uint8(1), uint8(2), uint8(10), uint8(0))
	f.Add(int64(7), uint8(1), uint8(1), uint8(0), uint8(1), uint8(1), uint8(0))
	f.Add(int64(-3), uint8(5), uint8(7), uint8(4), uint8(3), uint8(20), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, cells, members, chaffs, runs, slots, user uint8) {
		m := 1 + int(members%12)
		fleetTrackDifferential(t, seed, 1+int(cells%6), m, int(chaffs%5), 1+int(runs%4), 1+int(slots%24), int(user)%m)
	})
}

// TestFleetTrackAllocs pins a warm Track at zero allocations.
func TestFleetTrackAllocs(t *testing.T) {
	score, _ := scoringChains(t)
	runs := batchScoreCase(t, score, 1, 12, 50, 3, 5)
	f, err := NewFleet(score, runs[0][:10])
	if err != nil {
		t.Fatal(err)
	}
	chaffs := runs[0][10:]
	ll := make([]float64, len(chaffs))
	dst := make([]float64, 50)
	allocs := testing.AllocsPerRun(20, func() {
		if err := f.Track(2, chaffs, ll, dst); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm Track allocates %v per run, want 0", allocs)
	}
}

func TestFleetValidates(t *testing.T) {
	score, _ := scoringChains(t)
	if _, err := NewFleet(score, nil); err == nil {
		t.Fatal("empty fleet accepted")
	}
	if _, err := NewFleet(score, []markov.Trajectory{{0, 1}, {0}}); err == nil {
		t.Fatal("ragged fleet accepted")
	}
	if _, err := NewFleet(score, []markov.Trajectory{{0, 9}}); err == nil {
		t.Fatal("out-of-range fleet state accepted")
	}
	f, err := NewFleet(score, []markov.Trajectory{{0, 1, 2}, {1, 1, 3}})
	if err != nil {
		t.Fatal(err)
	}
	ll, dst := make([]float64, 1), make([]float64, 3)
	for name, call := range map[string]func() error{
		"user outside the fleet": func() error { return f.Track(2, nil, ll, dst) },
		"short series":           func() error { return f.Track(0, nil, ll, dst[:2]) },
		"short scratch":          func() error { return f.Track(0, []markov.Trajectory{{0, 1, 2}, {0, 1, 2}}, ll, dst) },
		"short chaff":            func() error { return f.Track(0, []markov.Trajectory{{0, 1}}, ll, dst) },
		"out-of-range chaff":     func() error { return f.Track(0, []markov.Trajectory{{0, 1, 4}}, ll, dst) },
	} {
		if call() == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
