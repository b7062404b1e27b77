package chaff

import (
	"fmt"
	"math"
	"math/rand"

	"chaffmec/internal/markov"
)

// Rollout is the rollout-policy extension to the online strategy that the
// paper names as the natural improvement over the myopic heuristic
// ("any efficient MDP solver (e.g., rollout algorithm) is applicable
// here", Section IV-D.1). At every slot it evaluates each candidate chaff
// move by its immediate MDP cost plus a Monte-Carlo estimate of the
// cost-to-go obtained by simulating the user's chain forward and letting
// the myopic policy (Algorithm 2) control the chaff for Horizon slots.
// By the standard rollout-improvement property its expected total cost is
// at most the myopic policy's.
//
// Rollout is randomized (its simulations consume the episode rng), so it
// is also moderately robust to a strategy-aware eavesdropper, unlike MO.
type Rollout struct {
	chain *markov.Chain
	// Horizon is the lookahead depth H of each simulated rollout.
	Horizon int
	// Samples is the number of Monte-Carlo rollouts per candidate move.
	Samples int

	// Online-episode state; nil between episodes.
	ep  *rolloutEpisode
	epN int
}

type rolloutEpisode struct {
	rng      *rand.Rand
	started  bool
	loc      int
	gamma    float64
	userPrev int
}

// DefaultRolloutHorizon and DefaultRolloutSamples balance decision quality
// against the O(L·Samples·Horizon) per-slot cost.
const (
	DefaultRolloutHorizon = 8
	DefaultRolloutSamples = 12
)

// NewRollout returns a rollout strategy with the default lookahead.
func NewRollout(chain *markov.Chain) *Rollout {
	return &Rollout{chain: chain, Horizon: DefaultRolloutHorizon, Samples: DefaultRolloutSamples}
}

var _ Strategy = (*Rollout)(nil)
var _ OnlineController = (*Rollout)(nil)

// Name implements Strategy.
func (s *Rollout) Name() string { return "Rollout" }

// step picks the chaff move at one slot: argmin over candidate moves of
// immediate cost + estimated cost-to-go under the myopic base policy.
// The candidates are scanned in index order (the cells with π > 0 at the
// first slot, the successors of chaffPrev afterwards): the lowest index
// wins a tie.
func (s *Rollout) step(rng *rand.Rand, m *moTables, gammaPrev float64, userPrev, userLoc, chaffPrev int) (int, float64) {
	var incUser float64
	if userPrev < 0 {
		incUser = m.logPi[userLoc]
	} else {
		incUser = m.logP[userPrev*m.n+userLoc]
	}

	bestMove, bestCost, bestGamma := -1, math.Inf(1), 0.0
	try := func(a int, score float64) {
		g := gammaPrev + incUser - score
		cost := SlotCost(g, userLoc, a)
		cost += s.costToGo(rng, m, g, userLoc, a)
		if cost < bestCost {
			bestMove, bestCost, bestGamma = a, cost, g
		}
	}
	if chaffPrev < 0 {
		for a, v := range m.logPi {
			if v > math.Inf(-1) { // π(a) > 0
				try(a, v)
			}
		}
	} else {
		for _, a := range s.chain.Successors(chaffPrev) {
			try(a, m.logP[chaffPrev*m.n+a])
		}
	}
	if bestMove < 0 {
		// No candidate (degenerate chain); fall back to the myopic step.
		return m.step(gammaPrev, userPrev, userLoc, chaffPrev, nil)
	}
	return bestMove, bestGamma
}

// costToGo estimates the expected cumulative SlotCost of running the
// myopic policy for Horizon further slots from state (γ, userLoc, chaffLoc).
func (s *Rollout) costToGo(rng *rand.Rand, m *moTables, gamma float64, userLoc, chaffLoc int) float64 {
	if s.Horizon <= 0 || s.Samples <= 0 {
		return 0
	}
	total := 0.0
	for k := 0; k < s.Samples; k++ {
		g, u, c := gamma, userLoc, chaffLoc
		for h := 0; h < s.Horizon; h++ {
			un := s.chain.Step(rng, u)
			cn, gn := m.step(g, u, un, c, nil)
			total += SlotCost(gn, un, cn)
			g, u, c = gn, un, cn
		}
	}
	return total / float64(s.Samples)
}

// GenerateChaffs implements Strategy; the single designed trajectory is
// replicated across chaffs as with the other deterministic-detector
// strategies.
func (s *Rollout) GenerateChaffs(rng *rand.Rand, user markov.Trajectory, numChaffs int) ([]markov.Trajectory, error) {
	if err := validateGenerate(user, numChaffs, s.chain.NumStates()); err != nil {
		return nil, err
	}
	if rng == nil {
		return nil, fmt.Errorf("chaff: Rollout requires a rand source")
	}
	m, err := newMOTables(s.chain)
	if err != nil {
		return nil, err
	}
	tr := make(markov.Trajectory, len(user))
	gamma := 0.0
	chaffPrev, userPrev := -1, -1
	for t, u := range user {
		tr[t], gamma = s.step(rng, &m, gamma, userPrev, u, chaffPrev)
		chaffPrev, userPrev = tr[t], u
	}
	return replicate(tr, numChaffs), nil
}

// --- OnlineController ---

// Reset implements OnlineController.
func (s *Rollout) Reset(rng *rand.Rand, numChaffs int) error {
	if numChaffs < 1 {
		return fmt.Errorf("chaff: numChaffs %d must be >= 1", numChaffs)
	}
	if rng == nil {
		return fmt.Errorf("chaff: Rollout requires a rand source")
	}
	s.ep = &rolloutEpisode{rng: rng, userPrev: -1, loc: -1}
	s.epN = numChaffs
	return nil
}

// Step implements OnlineController.
func (s *Rollout) Step(userLoc int) ([]int, error) {
	if s.ep == nil {
		return nil, fmt.Errorf("chaff: Rollout.Step before Reset")
	}
	m, err := newMOTables(s.chain)
	if err != nil {
		return nil, err
	}
	prev := -1
	if s.ep.started {
		prev = s.ep.loc
	}
	loc, gamma := s.step(s.ep.rng, &m, s.ep.gamma, s.ep.userPrev, userLoc, prev)
	s.ep.loc, s.ep.gamma, s.ep.userPrev, s.ep.started = loc, gamma, userLoc, true
	out := make([]int, s.epN)
	for i := range out {
		out[i] = loc
	}
	return out, nil
}
