package chaff

import (
	"testing"

	"chaffmec/internal/detect"
	"chaffmec/internal/markov"
	"chaffmec/internal/mobility"
	"chaffmec/internal/rng"
	"chaffmec/internal/trellis"
)

// ooMissDifferential checks OO's cost-only miss proof on one drawn chain
// with tied transition probabilities, zero transitions and, half the
// time, zero-π cells (moStepChain), at horizon T. The observation holds
// a sampled user x, Γ(x), Γ(Γ(x)), copies of x and Γ(x), the ML
// trajectory, Γ(x) with one slot moved and uniform draws, which tie in
// cost often on so few probability levels and are often impossible.
// Wherever ProvesMiss says true, Plan must succeed and its chaff must
// equal no other observed trajectory; the advanced filter must keep the
// same survivors, and fail alike, with and without the proof. ROO's
// exclusions must never be proved. It returns how many proofs it made.
func ooMissDifferential(t testing.TB, seed int64, n, levels, T int) int {
	t.Helper()
	r := rng.New(seed)
	c, _ := moStepChain(r, n, levels)
	user, err := c.Sample(r, T)
	if err != nil {
		t.Fatal(err)
	}
	s := NewOO(c)
	trs := []markov.Trajectory{user, user.Clone()}
	if g, err := s.Gamma(user); err == nil {
		moved := g.Clone()
		moved[r.Intn(T)] = r.Intn(n)
		trs = append(trs, g, g.Clone(), moved)
		if gg, err := s.Gamma(g); err == nil {
			trs = append(trs, gg)
		}
	}
	if ml, _, err := trellis.MLTrajectory(c, T, nil); err == nil {
		trs = append(trs, ml)
	}
	for k := 0; k < 3; k++ {
		uniform := make(markov.Trajectory, T)
		for i := range uniform {
			uniform[i] = r.Intn(n)
		}
		trs = append(trs, uniform)
	}
	// Observed sets of every size from a random subset, in random order.
	r.Shuffle(len(trs), func(i, j int) { trs[i], trs[j] = trs[j], trs[i] })
	trs = trs[:2+r.Intn(len(trs)-1)]

	proofs := 0
	for v := range trs {
		if !s.ProvesMiss(trs, v) {
			continue
		}
		proofs++
		res, err := s.Plan(trs[v])
		if err != nil {
			t.Fatalf("ProvesMiss(%d) on a trajectory Γ fails on: %v\nchain %v\ntrs %v", v, err, c.Matrix(), trs)
		}
		for u, cand := range trs {
			if u != v && cand.Equal(res.Chaff) {
				t.Fatalf("ProvesMiss(%d), but Γ(trs[%d]) = trs[%d]\nchain %v\ntrs %v", v, v, u, c.Matrix(), trs)
			}
		}
	}
	plain, err := detect.NewCappedAdvancedDetector(c, s.GammaWithin)
	if err != nil {
		t.Fatal(err)
	}
	proved, err := detect.NewSelfGammaDetector(c, s.GammaWithin, s.ProvesMiss)
	if err != nil {
		t.Fatal(err)
	}
	want, werr := plain.Survivors(trs)
	got, gerr := proved.Survivors(trs)
	switch {
	case (werr != nil) != (gerr != nil) || werr != nil && werr.Error() != gerr.Error():
		t.Fatalf("survivors error %v with the proof, %v without", gerr, werr)
	case werr == nil:
		for u := range want {
			if got[u] != want[u] {
				t.Fatalf("survivors %v with the proof, %v without\nchain %v\ntrs %v", got, want, c.Matrix(), trs)
			}
		}
	}
	excl := &OO{chain: c, excl: drawExclusions(r, trs[:1], 1)}
	for v := range trs {
		if excl.ProvesMiss(trs, v) {
			t.Fatalf("ProvesMiss(%d) under exclusions", v)
		}
	}
	return proofs
}

func TestOOMissProofSound(t *testing.T) {
	proofs := 0
	for seed := int64(0); seed < 400; seed++ {
		r := rng.New(rng.Derive(seed, 3))
		proofs += ooMissDifferential(t, seed, 1+r.Intn(8), 1+r.Intn(4), 1+r.Intn(40))
	}
	t.Logf("%d proofs over 400 drawn chains", proofs)
	if proofs == 0 {
		t.Fatal("the proof never fired on 400 drawn chains: the differential checked nothing")
	}
}

func FuzzOOMissProof(f *testing.F) {
	f.Add(int64(0), uint8(0), uint8(0), uint8(0))
	f.Add(int64(7), uint8(7), uint8(1), uint8(39))
	f.Add(int64(-3), uint8(3), uint8(3), uint8(12))
	f.Fuzz(func(t *testing.T, seed int64, cells, levels, horizon uint8) {
		ooMissDifferential(t, seed, 1+int(cells%8), 1+int(levels%4), 1+int(horizon%40))
	})
}

// TestOOMissProofPrunes: the proof is not vacuous where it matters. At
// the advanced-oo shape (spatially-skewed chain, 10 cells, model seed
// 2017, T=100) it rules out Γ(chaff) without a DP for at least 90% of
// sampled users, with one chaff and with two replicated ones, whose
// co-location cap is T.
func TestOOMissProofPrunes(t *testing.T) {
	c, err := mobility.Build(mobility.ModelSpatiallySkewed, rng.New(2017), 10)
	if err != nil {
		t.Fatal(err)
	}
	s := NewOO(c)
	r := rng.New(1)
	const runs = 200
	single, replicated := 0, 0
	for i := 0; i < runs; i++ {
		user, err := c.Sample(r, 100)
		if err != nil {
			t.Fatal(err)
		}
		ch, err := s.Gamma(user)
		if err != nil {
			t.Fatal(err)
		}
		if s.ProvesMiss([]markov.Trajectory{user, ch}, 1) {
			single++
		}
		if s.ProvesMiss([]markov.Trajectory{user, ch, ch.Clone()}, 1) {
			replicated++
		}
	}
	t.Logf("proved %d/%d single-chaff and %d/%d replicated misses", single, runs, replicated, runs)
	if single < runs*9/10 || replicated < runs*9/10 {
		t.Fatalf("proved %d/%d single-chaff and %d/%d replicated misses, want at least 90%% each", single, runs, replicated, runs)
	}
}

// BenchmarkOORunSelf times one advanced-oo run as the self-Γ path pays
// it, beside BenchmarkOORun's three plans: the generator plans the
// chaff, the detector reads that chaff as Γ(user) and OO's cost proof
// rules out Γ(chaff), on one shared OO.
func BenchmarkOORunSelf(b *testing.B) {
	s, _, _ := ooWorkloadPair(b)
	r := rng.New(3)
	users := make([]markov.Trajectory, 16)
	for i := range users {
		u, err := s.chain.Sample(r, 100)
		if err != nil {
			b.Fatal(err)
		}
		users[i] = u
	}
	gen := NewOO(s.chain)
	dst := make([]markov.Trajectory, 1)
	trs := make([]markov.Trajectory, 2)
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		user := users[i%len(users)]
		i++
		if err := gen.GenerateChaffsInto(nil, user, dst); err != nil {
			b.Fatal(err)
		}
		trs[0], trs[1] = user, dst[0]
		if !gen.ProvesMiss(trs, 1) {
			if _, err := gen.GammaWithin(dst[0], dst[0].Intersections(user)); err != nil {
				b.Fatal(err)
			}
		}
	}
}
