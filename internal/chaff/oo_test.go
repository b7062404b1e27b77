package chaff

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"chaffmec/internal/markov"
	"chaffmec/internal/mobility"
	"chaffmec/internal/rng"
	"chaffmec/internal/trellis"
)

func randomChain(rng *rand.Rand, n int) *markov.Chain {
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
	return markov.MustNew(p)
}

// bruteForceMinIntersections enumerates every trajectory of length T and
// returns the minimum number of user-intersections among trajectories with
// strictly higher likelihood than the user's, whether such a trajectory
// exists, and the same minimum for likelihood-equal trajectories.
func bruteForceMinIntersections(t *testing.T, c *markov.Chain, user markov.Trajectory) (strictMin int, strictOK bool, equalMin int, equalOK bool) {
	t.Helper()
	userLL, err := c.LogLikelihood(user)
	if err != nil {
		t.Fatal(err)
	}
	L := c.NumStates()
	T := len(user)
	strictMin, equalMin = T+1, T+1
	tr := make(markov.Trajectory, T)
	tol := 1e-9 * (1 + math.Abs(userLL))
	var rec func(slot int)
	rec = func(slot int) {
		if slot == T {
			ll, err := c.LogLikelihood(tr)
			if err != nil {
				t.Fatal(err)
			}
			inter := tr.Intersections(user)
			if ll > userLL+tol && inter < strictMin {
				strictMin, strictOK = inter, true
			}
			if math.Abs(ll-userLL) <= tol && inter < equalMin {
				equalMin, equalOK = inter, true
			}
			return
		}
		for x := 0; x < L; x++ {
			tr[slot] = x
			rec(slot + 1)
		}
	}
	rec(0)
	return strictMin, strictOK, equalMin, equalOK
}

func TestOOMatchesBruteForce(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rng.New(seed)
		L := 3 + rng.Intn(2) // 3-4 cells
		T := 3 + rng.Intn(3) // 3-5 slots
		c := randomChain(rng, L)
		user, err := c.Sample(rng, T)
		if err != nil {
			t.Fatal(err)
		}
		res, err := NewOO(c).Plan(user)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		strictMin, strictOK, equalMin, equalOK := bruteForceMinIntersections(t, c, user)
		if strictOK {
			if !res.Strict {
				t.Fatalf("seed %d: strict solution exists (i=%d) but OO fell back", seed, strictMin)
			}
			if res.Intersections != strictMin {
				t.Fatalf("seed %d: OO i* = %d, brute force = %d", seed, res.Intersections, strictMin)
			}
		} else {
			if res.Strict {
				t.Fatalf("seed %d: OO claims strict but brute force found none", seed)
			}
			if equalOK && res.Intersections != equalMin {
				t.Fatalf("seed %d: OO equality i* = %d, brute force = %d", seed, res.Intersections, equalMin)
			}
		}
		// Reported intersections must match the actual trajectory.
		if got := res.Chaff.Intersections(user); got != res.Intersections {
			t.Fatalf("seed %d: reported i*=%d but trajectory intersects %d times", seed, res.Intersections, got)
		}
		// Constraint (5): the chaff's likelihood is at least the user's.
		chaffLL, err := c.LogLikelihood(res.Chaff)
		if err != nil {
			t.Fatal(err)
		}
		userLL, _ := c.LogLikelihood(user)
		if chaffLL < userLL-1e-9*(1+math.Abs(userLL)) {
			t.Fatalf("seed %d: chaff LL %v < user LL %v", seed, chaffLL, userLL)
		}
	}
}

func TestOOEqualityFallbackOnMLUser(t *testing.T) {
	// When the user walks the ML trajectory itself, no trajectory has a
	// strictly higher likelihood: OO must fall back to equality.
	rng := rng.New(4)
	c := randomChain(rng, 5)
	user, _, err := trellis.MLTrajectory(c, 12, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewOO(c).Plan(user)
	if err != nil {
		t.Fatal(err)
	}
	if res.Strict {
		t.Fatal("OO reports strict solution against an ML user")
	}
	chaffLL, _ := c.LogLikelihood(res.Chaff)
	userLL, _ := c.LogLikelihood(user)
	if math.Abs(chaffLL-userLL) > 1e-6*(1+math.Abs(userLL)) {
		t.Fatalf("equality fallback: chaff LL %v != user LL %v", chaffLL, userLL)
	}
}

func TestOOBudgetGrowth(t *testing.T) {
	// Force a deep budget axis: a near-deterministic chain where the user
	// sits on the dominant cycle, so any competitive chaff must intersect
	// at every slot and the planner fills all T+1 budget columns.
	p := [][]float64{
		{0.998, 0.001, 0.001},
		{0.998, 0.001, 0.001},
		{0.998, 0.001, 0.001},
	}
	c := markov.MustNew(p)
	T := 14
	user := make(markov.Trajectory, T)
	for i := range user {
		user[i] = 0 // the user parks on the dominant state
	}
	res, err := NewOO(c).Plan(user)
	if err != nil {
		t.Fatal(err)
	}
	// The user is (essentially) the ML trajectory: equality fallback with
	// full co-location is the only way to match the likelihood.
	if res.Intersections != T {
		t.Fatalf("i* = %d, want %d (chaff must shadow the user)", res.Intersections, T)
	}
}

func TestOOHorizonOne(t *testing.T) {
	rng := rng.New(6)
	c := randomChain(rng, 4)
	pi := c.MustSteadyState()
	user := markov.Trajectory{markov.ArgmaxDist(pi)}
	res, err := NewOO(c).Plan(user)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Chaff) != 1 {
		t.Fatalf("chaff length %d, want 1", len(res.Chaff))
	}
	// User holds the most likely cell: fallback must co-locate or tie.
	if res.Strict {
		t.Fatal("strict impossible when user occupies the argmax-π cell at T=1")
	}
}

func TestOOValidation(t *testing.T) {
	rng := rng.New(1)
	c := randomChain(rng, 3)
	if _, err := NewOO(c).Plan(nil); err == nil {
		t.Fatal("empty user accepted")
	}
	if _, err := NewOO(c).Plan(markov.Trajectory{7}); err == nil {
		t.Fatal("out-of-range user state accepted")
	}
	if _, err := NewOO(c).GenerateChaffs(rng, markov.Trajectory{0, 1}, 0); err == nil {
		t.Fatal("numChaffs=0 accepted")
	}
}

func TestOOGenerateChaffsReplicates(t *testing.T) {
	rng := rng.New(2)
	c := randomChain(rng, 4)
	user, _ := c.Sample(rng, 10)
	chaffs, err := NewOO(c).GenerateChaffs(rng, user, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(chaffs) != 3 {
		t.Fatalf("got %d chaffs, want 3", len(chaffs))
	}
	if !chaffs[0].Equal(chaffs[1]) || !chaffs[1].Equal(chaffs[2]) {
		t.Fatal("deterministic strategy chaffs differ")
	}
}

// ooWorkloadPair returns OO on the advanced eavesdropper workload's chain
// (spatially skewed, L=10, model seed 2017) with a sampled T=100 user and
// its chaff: the two trajectories that workload's Γ filter plans against
// on every run.
func ooWorkloadPair(tb testing.TB) (*OO, markov.Trajectory, markov.Trajectory) {
	tb.Helper()
	c, err := mobility.Build(mobility.ModelSpatiallySkewed, rng.New(2017), 10)
	if err != nil {
		tb.Fatal(err)
	}
	user, err := c.Sample(rng.New(1), 100)
	if err != nil {
		tb.Fatal(err)
	}
	s := NewOO(c)
	chaff, err := s.Gamma(user)
	if err != nil {
		tb.Fatal(err)
	}
	return s, user, chaff
}

// TestOOPlanAllocs pins a warm Plan to its result: the OOResult and its
// trajectory. The DP's columns and backpointers come from the pooled
// workspace and V from the OO's snapshot, so a capped Γ that proves a
// miss allocates nothing. A fresh OO's first plan adds the snapshot: its
// struct, V and V's backpointers, one flat allocation each.
func TestOOPlanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	s, user, chaff := ooWorkloadPair(t)
	plan := func() {
		for _, u := range []markov.Trajectory{user, chaff} {
			if _, err := s.Plan(u); err != nil {
				t.Fatal(err)
			}
		}
	}
	plan() // grow the workspace
	if allocs := testing.AllocsPerRun(20, plan); allocs > 4 {
		t.Fatalf("warm Γ(user)+Γ(chaff) allocates %v times, want at most 4", allocs)
	}
	// The advanced eavesdropper's Γ(chaff): capped at the chaff's
	// overlap with the user, far below its i*.
	within := chaff.Intersections(user)
	miss := func() {
		if g, err := s.GammaWithin(chaff, within); err != nil || g != nil {
			t.Fatalf("GammaWithin(chaff, %d) = (%v, %v), want a miss", within, g, err)
		}
	}
	if allocs := testing.AllocsPerRun(20, miss); allocs != 0 {
		t.Fatalf("warm capped miss allocates %v times, want 0", allocs)
	}
	// AllocsPerRun calls its function runs+1 times: one cold OO each,
	// built outside the count.
	const runs = 20
	cold := make([]*OO, runs+1)
	for i := range cold {
		cold[i] = NewOO(s.chain)
	}
	next := 0
	first := func() {
		if _, err := cold[next].Plan(user); err != nil {
			t.Fatal(err)
		}
		next++
	}
	warm := testing.AllocsPerRun(runs, func() {
		if _, err := s.Plan(user); err != nil {
			t.Fatal(err)
		}
	})
	if allocs := testing.AllocsPerRun(runs, first); allocs > warm+3 {
		t.Fatalf("a fresh OO's first plan allocates %v times, a warm plan %v: want at most 3 more", allocs, warm)
	}
}

// BenchmarkOOPlan times Γ(user)+Γ(chaff) at the advanced eavesdropper
// workload's shape (L=10, T=100).
func BenchmarkOOPlan(b *testing.B) {
	s, user, chaff := ooWorkloadPair(b)
	b.ReportAllocs()
	for b.Loop() {
		for _, u := range []markov.Trajectory{user, chaff} {
			if _, err := s.Plan(u); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkOORun times the three OO plans of one advanced eavesdropper
// run (L=10, T=100, one chaff) as a campaign makes them: the generator
// plans the chaff, then the detector's own OO plans Γ(user) and Γ(chaff),
// each capped at the pair's co-location count. The users cycle through
// 16 samples of the workload's chain.
func BenchmarkOORun(b *testing.B) {
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
	gen, det := NewOO(s.chain), NewOO(s.chain)
	dst := make([]markov.Trajectory, 1)
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		user := users[i%len(users)]
		i++
		if err := gen.GenerateChaffsInto(nil, user, dst); err != nil {
			b.Fatal(err)
		}
		within := dst[0].Intersections(user)
		for _, v := range []markov.Trajectory{user, dst[0]} {
			if _, err := det.GammaWithin(v, within); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// TestOOPlanConcurrent shares one OO between goroutines, as the engine
// workers and the advanced detector's Γ do: every plan must equal the
// sequential one, and every capped Γ(chaff) must miss, while the pooled
// workspaces change hands.
func TestOOPlanConcurrent(t *testing.T) {
	s, user, chaff := ooWorkloadPair(t)
	short := user[:37]
	inputs := []markov.Trajectory{user, chaff, short}
	within := chaff.Intersections(user)
	want := make([]markov.Trajectory, len(inputs))
	for i, u := range inputs {
		res, err := s.Plan(u)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Chaff
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				i := (g + k) % len(inputs)
				got, err := s.Gamma(inputs[i])
				if err != nil {
					t.Error(err)
					return
				}
				if !got.Equal(want[i]) {
					t.Errorf("goroutine %d: plan %d differs from the sequential one", g, i)
					return
				}
				if miss, err := s.GammaWithin(chaff, within); err != nil || miss != nil {
					t.Errorf("goroutine %d: capped Γ(chaff) = (%v, %v), want a miss", g, miss, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// checkSnapshot asserts that s holds V for horizon T, bit for bit as a
// fresh Viterbi pass over s's trellis computes it.
func checkSnapshot(t *testing.T, s *OO, T int) {
	t.Helper()
	p := s.vit.Load()
	if p == nil {
		t.Fatalf("T=%d: no snapshot", T)
	}
	TL := T * s.chain.NumStates()
	v, vBack := make([]float64, TL), make([]int32, TL)
	(&OO{chain: s.chain, excl: s.excl}).viterbi(v, vBack, T)
	if len(p.v) != TL || len(p.vBack) != TL {
		t.Fatalf("T=%d: snapshot holds %d costs and %d backpointers, want %d", T, len(p.v), len(p.vBack), TL)
	}
	for k := range v {
		if math.Float64bits(p.v[k]) != math.Float64bits(v[k]) || p.vBack[k] != vBack[k] {
			t.Fatalf("T=%d, entry %d: snapshot (%v, %d), fresh pass (%v, %d)", T, k, p.v[k], p.vBack[k], v[k], vBack[k])
		}
	}
}

// TestOOViterbiCache checks the shared Viterbi snapshot: it equals a
// fresh pass at every horizon, a horizon change replaces it without
// changing a plan bit, and a cold OO planned on by many goroutines at
// once gives each the sequential plan.
func TestOOViterbiCache(t *testing.T) {
	s, user, chaff := ooWorkloadPair(t)
	c := s.chain
	for _, T := range []int{1, 2, 37, 100} {
		fresh := NewOO(c)
		if _, err := fresh.Plan(user[:T]); err != nil {
			t.Fatal(err)
		}
		checkSnapshot(t, fresh, T)
	}

	// One OO switching horizons plans as the oracle does.
	switching := NewOO(c)
	for _, T := range []int{100, 37, 1, 100} {
		for _, u := range []markov.Trajectory{user[:T], chaff[:T]} {
			checkMatchesDoubling(t, fmt.Sprintf("switching OO, T=%d", T), switching, u)
			checkSnapshot(t, switching, T)
		}
	}

	// Cold OOs, each first used by 8 goroutines released at once.
	inputs := []markov.Trajectory{user, chaff}
	want := make([]markov.Trajectory, len(inputs))
	for i, u := range inputs {
		res, err := NewOO(c).Plan(u)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Chaff
	}
	for round := 0; round < 20; round++ {
		cold := NewOO(c)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				i := g % len(inputs)
				got, err := cold.Plan(inputs[i])
				if err != nil {
					t.Error(err)
					return
				}
				if !got.Chaff.Equal(want[i]) {
					t.Errorf("round %d, goroutine %d: cold plan %d differs from the sequential one", round, g, i)
				}
			}()
		}
		close(start)
		wg.Wait()
		if t.Failed() {
			return
		}
		checkSnapshot(t, cold, len(user))
	}
}

// TestOOExcludedPlanLeavesSnapshot interleaves plain and excluded plans
// on one goroutine, so the excluded plan reuses the workspace the plain
// one just returned to the pool. Each OO must plan from its own trellis's
// V: an excluded plan that read or overwrote the plain OO's snapshot, or
// left its V in the shared workspace, would break the oracle match.
func TestOOExcludedPlanLeavesSnapshot(t *testing.T) {
	s, user, chaff := ooWorkloadPair(t)
	c := s.chain
	r := rng.New(11)
	for k := 0; k < 20; k++ {
		plain := NewOO(c)
		excluded := &OO{chain: c, excl: drawExclusions(r, []markov.Trajectory{user, chaff}, 8)}
		checkMatchesDoubling(t, "plain", plain, user)
		checkMatchesDoubling(t, "excluded", excluded, user)
		checkMatchesDoubling(t, "plain after excluded", plain, user)
		checkSnapshot(t, plain, len(user))
		checkSnapshot(t, excluded, len(user))
	}
}
