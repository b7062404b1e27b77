package chaff

import (
	"fmt"
	"math/rand"

	"chaffmec/internal/markov"
)

// MO is the myopic online strategy (Section IV-D, Algorithm 2): the causal
// heuristic for the finite-horizon MDP whose per-slot cost is the
// eavesdropper's per-slot tracking accuracy. At every slot the chaff moves
// to its maximum-likelihood next cell unless that cell is the user's, in
// which case it takes the second-best cell whenever doing so keeps the
// chaff's cumulative likelihood at least the user's (γ_t ≤ 0).
type MO struct {
	chain *markov.Chain

	// Online-episode state; nil between episodes.
	ep  *moEpisode
	epN int
}

type moEpisode struct {
	started  bool
	loc      int
	gamma    float64
	userPrev int
}

// NewMO returns the myopic online strategy over the user's chain.
func NewMO(chain *markov.Chain) *MO { return &MO{chain: chain} }

var _ Strategy = (*MO)(nil)
var _ TrajectoryMapper = (*MO)(nil)
var _ OnlineController = (*MO)(nil)

// Name implements Strategy.
func (s *MO) Name() string { return "MO" }

// moTables is the read-only chain data one slot of Algorithm 2 reads,
// all of it the chain's shared storage: the flat log P and log π, and
// the candidates ranked by them, the successors of each cell for later
// slots and the cells with π > 0 for the first.
type moTables struct {
	n     int
	logP  []float64
	logPi []float64
	rows  *markov.RankedRows
	start []int32
}

// newMOTables fetches c's MO tables; after the chain's first use it
// neither copies nor allocates.
func newMOTables(c *markov.Chain) (moTables, error) {
	logPi, err := c.LogSteadyState()
	if err != nil {
		return moTables{}, err
	}
	start, err := c.RankedSteadyState()
	if err != nil {
		return moTables{}, err
	}
	return moTables{n: c.NumStates(), logP: c.LogProbs(), logPi: logPi, rows: c.RankedSuccessors(), start: start}, nil
}

// step executes one slot of Algorithm 2. chaffPrev and userPrev are −1
// on the first slot. excluded (may be nil) removes cells from the chaff's
// candidate set — the RMO hook of Section VI-B. It returns the chaff's
// location and the updated log-likelihood gap γ_t = log p(user prefix) −
// log p(chaff prefix).
//
// The candidates, ranked by score with ties in index order, make the
// best cell the first one not excluded, and the second-best the next
// one after it; ties go to the lowest index, as a first-wins argmax over
// the candidates in index order would.
func (m *moTables) step(gammaPrev float64, userPrev, userLoc, chaffPrev int, excluded func(int) bool) (int, float64) {
	row, score := m.start, m.logPi
	if chaffPrev >= 0 {
		row, score = m.rows.Row(chaffPrev), m.logP[chaffPrev*m.n:(chaffPrev+1)*m.n]
	}

	i1 := firstAllowed(row, 0, excluded)
	// Every candidate excluded: fall back to the unrestricted ML move so
	// the chaff trajectory stays feasible.
	x1 := int(row[0])
	if i1 < len(row) {
		x1 = int(row[i1])
	}

	var incUser float64
	if userPrev < 0 {
		incUser = m.logPi[userLoc]
	} else {
		incUser = m.logP[userPrev*m.n+userLoc]
	}

	choose := x1
	if x1 == userLoc {
		// The second-best cell: the next one after x1 not excluded (every
		// cell before x1 is; none after it is the user's). There is none
		// when every candidate is excluded.
		i2 := firstAllowed(row, i1+1, excluded)
		// Case (2) of Section IV-D.2: take the second-best cell when the
		// chaff's cumulative likelihood stays at least the user's.
		if i2 < len(row) {
			if x2 := int(row[i2]); gammaPrev+incUser-score[x2] <= 0 {
				choose = x2
			}
		}
	}
	return choose, gammaPrev + incUser - score[choose]
}

// firstAllowed returns the index of the first entry of row at or after
// i that excluded (may be nil) does not remove, or len(row) if there is
// none.
func firstAllowed(row []int32, i int, excluded func(int) bool) int {
	if excluded == nil {
		return min(i, len(row))
	}
	for i < len(row) && excluded(int(row[i])) {
		i++
	}
	return min(i, len(row))
}

// Gamma implements TrajectoryMapper: MO's chaff is a deterministic causal
// function of the user's trajectory.
func (s *MO) Gamma(user markov.Trajectory) (markov.Trajectory, error) {
	tr := make(markov.Trajectory, len(user))
	if err := s.gammaInto(user, tr); err != nil {
		return nil, err
	}
	return tr, nil
}

// gammaInto designs the MO trajectory into tr (len(tr) == len(user)),
// allocation-free on a warm chain.
func (s *MO) gammaInto(user, tr markov.Trajectory) error {
	if len(user) == 0 {
		return fmt.Errorf("chaff: empty user trajectory")
	}
	if err := user.Validate(s.chain.NumStates()); err != nil {
		return err
	}
	m, err := newMOTables(s.chain)
	if err != nil {
		return err
	}
	gamma := 0.0
	chaffPrev, userPrev := -1, -1
	for t, u := range user {
		tr[t], gamma = m.step(gamma, userPrev, u, chaffPrev, nil)
		chaffPrev, userPrev = tr[t], u
	}
	return nil
}

// GenerateChaffs implements Strategy; extra chaffs duplicate the
// deterministic MO trajectory.
func (s *MO) GenerateChaffs(_ *rand.Rand, user markov.Trajectory, numChaffs int) ([]markov.Trajectory, error) {
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

// Reset implements OnlineController.
func (s *MO) Reset(_ *rand.Rand, numChaffs int) error {
	if numChaffs < 1 {
		return fmt.Errorf("chaff: numChaffs %d must be >= 1", numChaffs)
	}
	s.ep = &moEpisode{userPrev: -1, loc: -1}
	s.epN = numChaffs
	return nil
}

// Step implements OnlineController.
func (s *MO) Step(userLoc int) ([]int, error) {
	if s.ep == nil {
		return nil, fmt.Errorf("chaff: MO.Step before Reset")
	}
	m, err := newMOTables(s.chain)
	if err != nil {
		return nil, err
	}
	prev := -1
	if s.ep.started {
		prev = s.ep.loc
	}
	loc, gamma := m.step(s.ep.gamma, s.ep.userPrev, userLoc, prev, nil)
	s.ep.loc, s.ep.gamma, s.ep.userPrev, s.ep.started = loc, gamma, userLoc, true
	out := make([]int, s.epN)
	for i := range out {
		out[i] = loc
	}
	return out, nil
}
