package chaff

import (
	"strings"
	"testing"

	"chaffmec/internal/markov"
	"chaffmec/internal/mobility"
	"chaffmec/internal/rng"
)

func modelChain(t *testing.T, id mobility.ModelID) *markov.Chain {
	t.Helper()
	c, err := mobility.Build(id, rng.New(99), 10)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestIMGenerateChaffs(t *testing.T) {
	c := modelChain(t, mobility.ModelNonSkewed)
	rng := rng.New(1)
	user, _ := c.Sample(rng, 50)
	chaffs, err := NewIM(c).GenerateChaffs(rng, user, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(chaffs) != 5 {
		t.Fatalf("got %d chaffs, want 5", len(chaffs))
	}
	distinct := false
	for _, tr := range chaffs {
		if len(tr) != 50 {
			t.Fatalf("chaff length %d, want 50", len(tr))
		}
		if err := tr.Validate(c.NumStates()); err != nil {
			t.Fatal(err)
		}
		if !tr.Equal(chaffs[0]) {
			distinct = true
		}
	}
	if !distinct {
		t.Fatal("five independent IM chaffs all identical")
	}
}

func TestIMOnlineController(t *testing.T) {
	c := modelChain(t, mobility.ModelNonSkewed)
	im := NewIM(c)
	if _, err := im.Step(0); err == nil {
		t.Fatal("Step before Reset accepted")
	}
	if err := im.Reset(rng.New(2), 3); err != nil {
		t.Fatal(err)
	}
	for slot := 0; slot < 20; slot++ {
		locs, err := im.Step(slot % c.NumStates())
		if err != nil {
			t.Fatal(err)
		}
		if len(locs) != 3 {
			t.Fatalf("got %d locations, want 3", len(locs))
		}
		for _, l := range locs {
			if l < 0 || l >= c.NumStates() {
				t.Fatalf("location %d out of range", l)
			}
		}
	}
	if err := im.Reset(nil, 0); err == nil {
		t.Fatal("numChaffs=0 accepted")
	}
}

func TestMLChaffDominatesSamples(t *testing.T) {
	c := modelChain(t, mobility.ModelSpatiallySkewed)
	rng := rng.New(3)
	user, _ := c.Sample(rng, 40)
	ml := NewML(c)
	chaffs, err := ml.GenerateChaffs(rng, user, 1)
	if err != nil {
		t.Fatal(err)
	}
	chaffLL, _ := c.LogLikelihood(chaffs[0])
	userLL, _ := c.LogLikelihood(user)
	if chaffLL < userLL {
		t.Fatalf("ML chaff LL %v < user LL %v", chaffLL, userLL)
	}
	// Γ is constant: independent of the user trajectory.
	other, _ := c.Sample(rng, 40)
	g1, _ := ml.Gamma(user)
	g2, _ := ml.Gamma(other)
	if !g1.Equal(g2) {
		t.Fatal("ML Gamma depends on the user trajectory")
	}
	// Cache: same horizon twice returns equal trajectories.
	g3, _ := ml.Trajectory(40)
	if !g1.Equal(g3) {
		t.Fatal("cached ML trajectory differs")
	}
}

func TestCMLNeverCoLocates(t *testing.T) {
	for _, id := range mobility.AllModels {
		c := modelChain(t, id)
		rng := rng.New(5)
		for trial := 0; trial < 10; trial++ {
			user, _ := c.Sample(rng, 60)
			tr, err := NewCML(c).Gamma(user)
			if err != nil {
				t.Fatal(err)
			}
			if n := tr.Intersections(user); n != 0 {
				t.Fatalf("model %v: CML co-locates %d times", id, n)
			}
		}
	}
}

func TestCMLGreedyChoice(t *testing.T) {
	// Hand example: π known, chaff must take the best non-user cell.
	c := markov.MustNew([][]float64{
		{0.1, 0.6, 0.3},
		{0.2, 0.5, 0.3},
		{0.3, 0.3, 0.4},
	})
	user := markov.Trajectory{1, 1, 1}
	tr, err := NewCML(c).Gamma(user)
	if err != nil {
		t.Fatal(err)
	}
	pi := c.MustSteadyState()
	wantFirst := markov.ArgmaxDistExcluding(pi, func(x int) bool { return x == 1 })
	if tr[0] != wantFirst {
		t.Fatalf("first cell %d, want %d", tr[0], wantFirst)
	}
	for slot := 1; slot < len(tr); slot++ {
		want := c.MaxProbSuccessorExcluding(tr[slot-1], func(x int) bool { return x == 1 })
		if tr[slot] != want {
			t.Fatalf("slot %d: got %d, want greedy %d", slot, tr[slot], want)
		}
	}
}

func TestCMLOnlineMatchesBatch(t *testing.T) {
	c := modelChain(t, mobility.ModelTemporallySkewed)
	rng := rng.New(8)
	user, _ := c.Sample(rng, 30)
	cml := NewCML(c)
	batch, err := cml.Gamma(user)
	if err != nil {
		t.Fatal(err)
	}
	if err := cml.Reset(nil, 1); err != nil {
		t.Fatal(err)
	}
	for slot, u := range user {
		locs, err := cml.Step(u)
		if err != nil {
			t.Fatal(err)
		}
		if locs[0] != batch[slot] {
			t.Fatalf("slot %d: online %d != batch %d", slot, locs[0], batch[slot])
		}
	}
}

func TestMOAlgorithmHandExample(t *testing.T) {
	// Algorithm 2 traced by hand. π = (0.25, 0.75) for a=0.3, b=0.1.
	c := markov.MustNew([][]float64{
		{0.7, 0.3},
		{0.1, 0.9},
	})
	mo := NewMO(c)

	// Slot 1: user at 1 (the argmax-π cell). x(1)=1 == user;
	// x(2)=0 with π=0.25 < π(1)=0.75 ⇒ stay on x(1): co-locate at 1.
	user := markov.Trajectory{1, 1, 0}
	tr, err := mo.Gamma(user)
	if err != nil {
		t.Fatal(err)
	}
	if tr[0] != 1 {
		t.Fatalf("slot 0: chaff %d, want 1 (case 3 co-location)", tr[0])
	}
	// γ1 = logπ(1)−logπ(1) = 0.
	// Slot 2: chaff at 1, x(1)=argmax P(·|1)=1 == user(=1);
	// x(2)=0: γ1 + logP(1|1) − logP(0|1) = 0 + log0.9 − log0.1 > 0 ⇒ x(1).
	if tr[1] != 1 {
		t.Fatalf("slot 1: chaff %d, want 1", tr[1])
	}
	// Slot 3: user moves to 0. x(1)=argmax P(·|1)=1 ≠ 0 ⇒ chaff 1.
	if tr[2] != 1 {
		t.Fatalf("slot 2: chaff %d, want 1", tr[2])
	}

	// Now a user that starts on the non-modal cell: chaff takes the modal
	// cell and never needs to co-locate.
	user2 := markov.Trajectory{0, 0, 0}
	tr2, err := mo.Gamma(user2)
	if err != nil {
		t.Fatal(err)
	}
	for slot, x := range tr2 {
		if x != 1 {
			t.Fatalf("slot %d: chaff %d, want 1", slot, x)
		}
	}
}

func TestMOOnlineMatchesBatch(t *testing.T) {
	c := modelChain(t, mobility.ModelBothSkewed)
	rng := rng.New(13)
	user, _ := c.Sample(rng, 40)
	mo := NewMO(c)
	batch, err := mo.Gamma(user)
	if err != nil {
		t.Fatal(err)
	}
	if err := mo.Reset(nil, 2); err != nil {
		t.Fatal(err)
	}
	for slot, u := range user {
		locs, err := mo.Step(u)
		if err != nil {
			t.Fatal(err)
		}
		if len(locs) != 2 || locs[0] != locs[1] {
			t.Fatalf("slot %d: duplicated chaffs differ: %v", slot, locs)
		}
		if locs[0] != batch[slot] {
			t.Fatalf("slot %d: online %d != batch %d", slot, locs[0], batch[slot])
		}
	}
}

func TestMOKeepsLikelihoodCompetitive(t *testing.T) {
	// Under models with a clear ML move structure, MO's γ (user LL − chaff
	// LL) should rarely be positive; verify the final γ is ≤ 0 for most
	// runs on the non-skewed model.
	c := modelChain(t, mobility.ModelNonSkewed)
	rng := rng.New(21)
	mo := NewMO(c)
	positive := 0
	const runs = 50
	for r := 0; r < runs; r++ {
		user, _ := c.Sample(rng, 100)
		tr, err := mo.Gamma(user)
		if err != nil {
			t.Fatal(err)
		}
		userLL, _ := c.LogLikelihood(user)
		chaffLL, _ := c.LogLikelihood(tr)
		if userLL > chaffLL+1e-9 {
			positive++
		}
	}
	if positive > runs/5 {
		t.Fatalf("MO lost the likelihood race in %d/%d runs", positive, runs)
	}
}

func TestSlotCost(t *testing.T) {
	tests := []struct {
		gamma    float64
		user, ch int
		want     float64
	}{
		{-1, 0, 0, 1},      // co-location always costs 1
		{1, 0, 1, 1},       // user more likely: tracked
		{0, 0, 1, 0.5},     // tie: coin flip
		{-1, 0, 1, 0},      // chaff more likely and apart: safe
		{1e-15, 0, 1, 0.5}, // numerically tied
	}
	for _, tc := range tests {
		if got := SlotCost(tc.gamma, tc.user, tc.ch); got != tc.want {
			t.Fatalf("SlotCost(%v,%d,%d) = %v, want %v", tc.gamma, tc.user, tc.ch, got, tc.want)
		}
	}
}

func TestRegistry(t *testing.T) {
	c := modelChain(t, mobility.ModelNonSkewed)
	for _, name := range Names() {
		s, err := NewByName(name, c)
		if err != nil {
			t.Fatalf("NewByName(%q): %v", name, err)
		}
		if s.Name() != name {
			t.Fatalf("strategy %q reports name %q", name, s.Name())
		}
	}
	if _, err := NewByName("nope", c); err == nil {
		t.Fatal("unknown strategy accepted")
	}
	// Case-insensitive.
	if _, err := NewByName("oo", c); err != nil {
		t.Fatalf("lower-case lookup failed: %v", err)
	}
}

// TestKnownMatchesNewByName: Known says yes exactly where NewByName
// builds a strategy, case folding and trimming included.
func TestKnownMatchesNewByName(t *testing.T) {
	c := modelChain(t, mobility.ModelNonSkewed)
	names := []string{"", "nope", "O O", "OOO", " oo ", "rollout", "APPROXdp", "Mo\t"}
	for _, name := range Names() {
		names = append(names, name, strings.ToLower(name))
	}
	for _, name := range names {
		_, err := NewByName(name, c)
		if got := Known(name); got != (err == nil) {
			t.Fatalf("Known(%q) = %v, NewByName error %v", name, got, err)
		}
	}
}

func TestRolloutProducesValidTrajectory(t *testing.T) {
	c := modelChain(t, mobility.ModelSpatiallySkewed)
	r := rng.New(31)
	user, _ := c.Sample(r, 25)
	ro := NewRollout(c)
	ro.Horizon, ro.Samples = 4, 4
	chaffs, err := ro.GenerateChaffs(rng.New(7), user, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(chaffs) != 2 || len(chaffs[0]) != 25 {
		t.Fatalf("unexpected shape: %d chaffs × %d", len(chaffs), len(chaffs[0]))
	}
	if err := chaffs[0].Validate(c.NumStates()); err != nil {
		t.Fatal(err)
	}
	// Determinism given the same seed.
	again, err := ro.GenerateChaffs(rng.New(7), user, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !chaffs[0].Equal(again[0]) {
		t.Fatal("rollout not reproducible under a fixed seed")
	}
	if _, err := ro.GenerateChaffs(nil, user, 1); err == nil {
		t.Fatal("nil rng accepted")
	}
}

func TestRolloutOnline(t *testing.T) {
	c := modelChain(t, mobility.ModelNonSkewed)
	ro := NewRollout(c)
	ro.Horizon, ro.Samples = 3, 3
	if _, err := ro.Step(0); err == nil {
		t.Fatal("Step before Reset accepted")
	}
	if err := ro.Reset(rng.New(1), 1); err != nil {
		t.Fatal(err)
	}
	for slot := 0; slot < 10; slot++ {
		locs, err := ro.Step(slot % c.NumStates())
		if err != nil {
			t.Fatal(err)
		}
		if len(locs) != 1 || locs[0] < 0 || locs[0] >= c.NumStates() {
			t.Fatalf("bad step output %v", locs)
		}
	}
}

func TestGammaInfinityHandling(t *testing.T) {
	// A user transition of probability zero must not break MO: γ becomes
	// −Inf (the user's trajectory is impossible under the model) and the
	// chaff simply keeps taking its ML moves.
	c := markov.MustNew([][]float64{
		{0, 1, 0},
		{0.5, 0, 0.5},
		{0, 1, 0},
	})
	user := markov.Trajectory{0, 0, 0} // impossible self-loops
	tr, err := NewMO(c).Gamma(user)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(3); err != nil {
		t.Fatal(err)
	}
	for slot := 1; slot < len(tr); slot++ {
		if c.Prob(tr[slot-1], tr[slot]) == 0 {
			t.Fatalf("chaff made an impossible move at slot %d", slot)
		}
	}
}
