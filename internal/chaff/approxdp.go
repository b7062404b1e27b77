package chaff

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"chaffmec/internal/markov"
)

// ApproxDP solves the Section IV-D finite-horizon MDP by backward value
// iteration over a discretized likelihood-gap axis, addressing the
// challenge the paper identifies — "one component of the state (γ_t) has
// a continuous space" — by quantizing γ into uniform bins and clipping to
// [−GammaMax, GammaMax] (the per-slot cost depends on γ only through its
// sign, so far-from-zero values saturate). Against the basic per-prefix
// ML detector this is the (approximately) optimal online strategy; the
// myopic MO policy is its one-step-greedy special case.
//
// The solver is exponential in nothing but cubic-ish in the model size —
// O(T·B·L²·deg²) time and O(T·B·L²) memory — so it is intended for small
// cell counts (the synthetic L=10 models). NewApproxDP rejects chains
// larger than MaxCells.
type ApproxDP struct {
	chain *markov.Chain
	// Bins is the number of γ bins (forced odd so one bin is centred on
	// zero, where the detector coin-flips).
	Bins int
	// GammaMax clips |γ|.
	GammaMax float64

	mu    sync.Mutex
	plans map[int]*dpPlan // horizon → value tables

	// onlineHorizon fixes the planning horizon of the online controller.
	onlineHorizon int

	// Online-episode state; nil between episodes.
	ep  *dpEpisode
	epN int
}

type dpPlan struct {
	horizon int
	// v[t] has Bins×L×L float32 entries: expected cost from slot t on,
	// given state (γ-bin, user cell, chaff cell) at slot t.
	v [][]float32
}

type dpEpisode struct {
	started  bool
	plan     *dpPlan
	slot     int
	gamma    float64
	loc      int
	userPrev int
}

// Solver defaults: 241 bins over ±30 nats resolve the near-zero region
// (bin width 0.25) where detection flips.
const (
	DefaultDPBins     = 241
	DefaultDPGammaMax = 30.0
	// MaxCells bounds the chain size the solver accepts.
	MaxCells = 24
)

// NewApproxDP builds the solver strategy for the chain.
func NewApproxDP(chain *markov.Chain) (*ApproxDP, error) {
	if chain.NumStates() > MaxCells {
		return nil, fmt.Errorf("chaff: ApproxDP supports at most %d cells, got %d (use MO or Rollout)",
			MaxCells, chain.NumStates())
	}
	return &ApproxDP{
		chain:    chain,
		Bins:     DefaultDPBins,
		GammaMax: DefaultDPGammaMax,
		plans:    make(map[int]*dpPlan),
	}, nil
}

var _ Strategy = (*ApproxDP)(nil)
var _ TrajectoryMapper = (*ApproxDP)(nil)
var _ OnlineController = (*ApproxDP)(nil)

// Name implements Strategy.
func (s *ApproxDP) Name() string { return "ApproxDP" }

// binOf maps γ to its bin index, clipping at the range ends.
func (s *ApproxDP) binOf(gamma float64) int {
	if math.IsInf(gamma, -1) || gamma <= -s.GammaMax {
		return 0
	}
	if gamma >= s.GammaMax {
		return s.Bins - 1
	}
	w := 2 * s.GammaMax / float64(s.Bins)
	b := int((gamma + s.GammaMax) / w)
	if b >= s.Bins {
		b = s.Bins - 1
	}
	return b
}

// binCenter returns the γ value at the centre of bin b.
func (s *ApproxDP) binCenter(b int) float64 {
	w := 2 * s.GammaMax / float64(s.Bins)
	return -s.GammaMax + (float64(b)+0.5)*w
}

// slotCostBin is the per-slot MDP cost at a binned state.
func (s *ApproxDP) slotCostBin(b int, userLoc, chaffLoc int) float32 {
	if chaffLoc == userLoc {
		return 1
	}
	g := s.binCenter(b)
	w := 2 * s.GammaMax / float64(s.Bins)
	switch {
	case math.Abs(g) < w/4: // the zero-centred bin: detector coin flip
		return 0.5
	case g > 0:
		return 1
	default:
		return 0
	}
}

// plan computes (and caches) the value tables for the horizon.
func (s *ApproxDP) plan(T int) (*dpPlan, error) {
	if T < 1 {
		return nil, fmt.Errorf("chaff: ApproxDP horizon %d must be >= 1", T)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if p, ok := s.plans[T]; ok {
		return p, nil
	}
	c := s.chain
	L := c.NumStates()
	B := s.Bins
	idx := func(b, x1, x2 int) int { return (b*L+x1)*L + x2 }

	p := &dpPlan{horizon: T, v: make([][]float32, T)}
	for t := range p.v {
		p.v[t] = make([]float32, B*L*L)
	}
	// Terminal layer: only the slot cost remains.
	last := p.v[T-1]
	for b := 0; b < B; b++ {
		for x1 := 0; x1 < L; x1++ {
			for x2 := 0; x2 < L; x2++ {
				last[idx(b, x1, x2)] = s.slotCostBin(b, x1, x2)
			}
		}
	}
	// Backward induction: V_t(s) = C(s) + E_{x1'}[min_a V_{t+1}(s')].
	for t := T - 2; t >= 0; t-- {
		cur, next := p.v[t], p.v[t+1]
		for b := 0; b < B; b++ {
			g := s.binCenter(b)
			for x1 := 0; x1 < L; x1++ {
				for x2 := 0; x2 < L; x2++ {
					exp := 0.0
					for _, x1n := range c.Successors(x1) {
						du := c.LogProb(x1, x1n)
						best := float32(math.Inf(1))
						for _, a := range c.Successors(x2) {
							gn := g + du - c.LogProb(x2, a)
							v := next[idx(s.binOf(gn), x1n, a)]
							if v < best {
								best = v
							}
						}
						exp += c.Prob(x1, x1n) * float64(best)
					}
					cur[idx(b, x1, x2)] = s.slotCostBin(b, x1, x2) + float32(exp)
				}
			}
		}
	}
	s.plans[T] = p
	return p, nil
}

// firstMove picks x2,1 after observing x1,1: argmin over starting cells of
// V_1 at the resulting state. Ties break to the lowest cell.
// logPi is the chain's LogSteadyState.
func (s *ApproxDP) firstMove(p *dpPlan, logPi []float64, userLoc int) (int, float64) {
	L := s.chain.NumStates()
	idx := func(b, x1, x2 int) int { return (b*L+x1)*L + x2 }
	lu := logPi[userLoc]
	best, bestV, bestG := -1, float32(math.Inf(1)), 0.0
	for a := 0; a < L; a++ {
		if logPi[a] == math.Inf(-1) { // π(a) = 0
			continue
		}
		g := lu - logPi[a]
		if v := p.v[0][idx(s.binOf(g), userLoc, a)]; v < bestV {
			best, bestV, bestG = a, v, g
		}
	}
	return best, bestG
}

// nextMove picks x2,t (t ≥ 2) after observing x1,t: argmin over successor
// moves of V_t at the resulting state, tracking the exact (unbinned) γ.
func (s *ApproxDP) nextMove(p *dpPlan, slot int, gamma float64, userPrev, userLoc, chaffPrev int) (int, float64) {
	c := s.chain
	L := c.NumStates()
	idx := func(b, x1, x2 int) int { return (b*L+x1)*L + x2 }
	du := c.LogProb(userPrev, userLoc)
	best, bestV, bestG := -1, float32(math.Inf(1)), 0.0
	for _, a := range c.Successors(chaffPrev) {
		g := gamma + du - c.LogProb(chaffPrev, a)
		if v := p.v[slot][idx(s.binOf(g), userLoc, a)]; v < bestV {
			best, bestV, bestG = a, v, g
		}
	}
	return best, bestG
}

// Gamma implements TrajectoryMapper: the solver's chaff is deterministic
// given the user's trajectory.
func (s *ApproxDP) Gamma(user markov.Trajectory) (markov.Trajectory, error) {
	if len(user) == 0 {
		return nil, fmt.Errorf("chaff: empty user trajectory")
	}
	if err := user.Validate(s.chain.NumStates()); err != nil {
		return nil, err
	}
	p, err := s.plan(len(user))
	if err != nil {
		return nil, err
	}
	logPi, err := s.chain.LogSteadyState()
	if err != nil {
		return nil, err
	}
	tr := make(markov.Trajectory, len(user))
	var gamma float64
	tr[0], gamma = s.firstMove(p, logPi, user[0])
	if tr[0] < 0 {
		return nil, fmt.Errorf("chaff: ApproxDP found no feasible first move")
	}
	for t := 1; t < len(user); t++ {
		var next int
		next, gamma = s.nextMove(p, t, gamma, user[t-1], user[t], tr[t-1])
		if next < 0 {
			return nil, fmt.Errorf("chaff: ApproxDP dead end at slot %d", t)
		}
		tr[t] = next
	}
	return tr, nil
}

// GenerateChaffs implements Strategy; the designed trajectory is
// replicated across chaffs like the other deterministic strategies.
func (s *ApproxDP) GenerateChaffs(_ *rand.Rand, user markov.Trajectory, numChaffs int) ([]markov.Trajectory, error) {
	if err := validateGenerate(user, numChaffs, s.chain.NumStates()); err != nil {
		return nil, err
	}
	tr, err := s.Gamma(user)
	if err != nil {
		return nil, err
	}
	return replicate(tr, numChaffs), nil
}

// --- OnlineController ---
//
// The online form needs the horizon up-front (the policy is
// horizon-dependent); SetHorizon must be called before Reset, or the
// DefaultDPOnlineHorizon is used.

// DefaultDPOnlineHorizon is the planning horizon assumed by the online
// controller when none is set.
const DefaultDPOnlineHorizon = 100

// horizonOverride, when positive, fixes the online planning horizon.
func (s *ApproxDP) horizon() int {
	if s.onlineHorizon > 0 {
		return s.onlineHorizon
	}
	return DefaultDPOnlineHorizon
}

// SetHorizon fixes the planning horizon used by the online controller.
func (s *ApproxDP) SetHorizon(T int) { s.onlineHorizon = T }

// Reset implements OnlineController.
func (s *ApproxDP) Reset(_ *rand.Rand, numChaffs int) error {
	if numChaffs < 1 {
		return fmt.Errorf("chaff: numChaffs %d must be >= 1", numChaffs)
	}
	p, err := s.plan(s.horizon())
	if err != nil {
		return err
	}
	s.ep = &dpEpisode{plan: p, userPrev: -1, loc: -1}
	s.epN = numChaffs
	return nil
}

// Step implements OnlineController. Past the planning horizon the
// controller falls back to myopic steps.
func (s *ApproxDP) Step(userLoc int) ([]int, error) {
	if s.ep == nil {
		return nil, fmt.Errorf("chaff: ApproxDP.Step before Reset")
	}
	m, err := newMOTables(s.chain)
	if err != nil {
		return nil, err
	}
	ep := s.ep
	var loc int
	switch {
	case !ep.started:
		loc, ep.gamma = s.firstMove(ep.plan, m.logPi, userLoc)
		ep.started = true
	case ep.slot < ep.plan.horizon:
		loc, ep.gamma = s.nextMove(ep.plan, ep.slot, ep.gamma, ep.userPrev, userLoc, ep.loc)
	default:
		loc, ep.gamma = m.step(ep.gamma, ep.userPrev, userLoc, ep.loc, nil)
	}
	if loc < 0 {
		return nil, fmt.Errorf("chaff: ApproxDP dead end at slot %d", ep.slot)
	}
	ep.loc, ep.userPrev = loc, userLoc
	ep.slot++
	out := make([]int, s.epN)
	for i := range out {
		out[i] = loc
	}
	return out, nil
}
