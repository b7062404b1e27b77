package chaff

import (
	"fmt"
	"math/rand"

	"chaffmec/internal/markov"
	"chaffmec/internal/trellis"
)

// The robust strategies of Section VI-B defend against an advanced
// eavesdropper who knows the chaff-control strategy: they generate the
// N−1 chaff trajectories iteratively, randomly perturbing each one so it
// cannot be reproduced (and thus recognized) by the eavesdropper, while
// staying close to the deterministic original's behaviour under the basic
// ML detector.

// drawExclusions builds X_u for RML/ROO: for every already-fixed
// trajectory (the user's and each earlier chaff's), k uniformly random
// (cell, slot) pairs from that trajectory are forbidden for the new
// chaff. The paper's Section VI-B prescribes k=1; larger k forces deeper
// perturbations, which matters when the advanced eavesdropper observes
// many trajectories: evaluating Γ on every observed trajectory gives him
// a whole *family* of reference chaffs, and a singly-perturbed trajectory
// frequently coincides with one of them (see EXPERIMENTS.md, Fig. 10).
func drawExclusions(rng *rand.Rand, fixed []markov.Trajectory, k int) *trellis.ExclusionSet {
	if k < 1 {
		k = 1
	}
	excl := trellis.NewExclusionSet()
	for _, tr := range fixed {
		for i := 0; i < k; i++ {
			t := rng.Intn(len(tr))
			excl.Add(tr[t], t)
		}
	}
	return excl
}

// RML is the robust ML strategy: each chaff follows the most likely
// trajectory that avoids Pairs random points of every previously
// generated trajectory (Section VI-B.1; the paper uses Pairs=1).
type RML struct {
	chain *markov.Chain
	// Pairs is the number of excluded (cell,slot) pairs drawn per prior
	// trajectory (k above); 0 behaves as the paper's 1.
	Pairs int
}

// NewRML returns a robust-ML strategy over the user's chain.
func NewRML(chain *markov.Chain) *RML { return &RML{chain: chain} }

var _ Strategy = (*RML)(nil)

// Name implements Strategy.
func (s *RML) Name() string { return "RML" }

// GenerateChaffs implements Strategy.
func (s *RML) GenerateChaffs(rng *rand.Rand, user markov.Trajectory, numChaffs int) ([]markov.Trajectory, error) {
	if err := validateGenerate(user, numChaffs, s.chain.NumStates()); err != nil {
		return nil, err
	}
	fixed := []markov.Trajectory{user}
	out := make([]markov.Trajectory, 0, numChaffs)
	for u := 0; u < numChaffs; u++ {
		excl := drawExclusions(rng, fixed, s.Pairs)
		tr, _, err := trellis.MLTrajectory(s.chain, len(user), excl)
		if err != nil {
			return nil, fmt.Errorf("chaff: RML chaff %d: %w", u+1, err)
		}
		fixed = append(fixed, tr)
		out = append(out, tr)
	}
	return out, nil
}

// ROO is the robust OO strategy: each chaff runs the Algorithm 1 dynamic
// program on the trellis with Pairs random points of every previously
// generated trajectory removed (Section VI-B.2; the paper uses Pairs=1).
type ROO struct {
	chain *markov.Chain
	// Pairs is the number of excluded (cell,slot) pairs drawn per prior
	// trajectory; 0 behaves as the paper's 1.
	Pairs int
}

// NewROO returns a robust-OO strategy over the user's chain.
func NewROO(chain *markov.Chain) *ROO { return &ROO{chain: chain} }

var _ Strategy = (*ROO)(nil)

// Name implements Strategy.
func (s *ROO) Name() string { return "ROO" }

// GenerateChaffs implements Strategy.
func (s *ROO) GenerateChaffs(rng *rand.Rand, user markov.Trajectory, numChaffs int) ([]markov.Trajectory, error) {
	if err := validateGenerate(user, numChaffs, s.chain.NumStates()); err != nil {
		return nil, err
	}
	fixed := []markov.Trajectory{user}
	out := make([]markov.Trajectory, 0, numChaffs)
	for u := 0; u < numChaffs; u++ {
		oo := &OO{chain: s.chain, excl: drawExclusions(rng, fixed, s.Pairs)}
		res, err := oo.Plan(user)
		if err != nil {
			return nil, fmt.Errorf("chaff: ROO chaff %d: %w", u+1, err)
		}
		fixed = append(fixed, res.Chaff)
		out = append(out, res.Chaff)
	}
	return out, nil
}

// RMO is the robust MO strategy (Section VI-B.3): trajectory-level
// exclusions are replaced by index-slot pairs X′_u = {(u′, t_{u′})} drawn
// beforehand, and at every slot each chaff runs the Algorithm 2 step with
// the flagged trajectories' current cells removed from its move set, which
// preserves the online property.
type RMO struct {
	chain *markov.Chain

	// Online-episode state; nil between episodes.
	ep *rmoEpisode
}

type rmoEpisode struct {
	rng      *rand.Rand
	started  bool
	slot     int
	userPrev int
	locs     []int     // chaff locations at the previous slot
	gammas   []float64 // per-chaff likelihood gap γ
	avoid    [][]int   // avoid[u][u'] = slot at which chaff u avoids trajectory u'
	horizon  int       // slots for which avoid was drawn; grows on demand
}

// NewRMO returns a robust-MO strategy over the user's chain.
func NewRMO(chain *markov.Chain) *RMO { return &RMO{chain: chain} }

var _ Strategy = (*RMO)(nil)
var _ OnlineController = (*RMO)(nil)

// Name implements Strategy.
func (s *RMO) Name() string { return "RMO" }

// drawAvoid draws X′_u for every chaff u: one random slot per lower-index
// trajectory u′ (u′ = 0 is the user, 1..u are earlier chaffs).
func drawAvoid(rng *rand.Rand, numChaffs, T int) [][]int {
	avoid := make([][]int, numChaffs)
	for u := range avoid {
		avoid[u] = make([]int, u+1)
		for up := range avoid[u] {
			avoid[u][up] = rng.Intn(T)
		}
	}
	return avoid
}

// GenerateChaffs implements Strategy.
func (s *RMO) GenerateChaffs(rng *rand.Rand, user markov.Trajectory, numChaffs int) ([]markov.Trajectory, error) {
	if err := validateGenerate(user, numChaffs, s.chain.NumStates()); err != nil {
		return nil, err
	}
	m, err := newMOTables(s.chain)
	if err != nil {
		return nil, err
	}
	T := len(user)
	avoid := drawAvoid(rng, numChaffs, T)
	out := make([]markov.Trajectory, numChaffs)
	for u := range out {
		out[u] = make(markov.Trajectory, T)
	}
	gammas := make([]float64, numChaffs)
	userPrev := -1
	for t := 0; t < T; t++ {
		for u := 0; u < numChaffs; u++ {
			banned := bannedCells(avoid[u], t, user, out, u)
			prev := -1
			if t > 0 {
				prev = out[u][t-1]
			}
			out[u][t], gammas[u] = m.step(gammas[u], userPrev, user[t], prev, banned)
		}
		userPrev = user[t]
	}
	return out, nil
}

// bannedCells returns the exclusion predicate for chaff u at slot t: the
// current cells of every trajectory u′ whose drawn slot equals t. Index 0
// in avoidSlots refers to the user; index k≥1 refers to chaff k−1.
func bannedCells(avoidSlots []int, t int, user markov.Trajectory, chaffs []markov.Trajectory, u int) func(int) bool {
	var cells []int
	for up, slot := range avoidSlots {
		if slot != t {
			continue
		}
		if up == 0 {
			cells = append(cells, user[t])
		} else if up-1 < u {
			cells = append(cells, chaffs[up-1][t])
		}
	}
	if len(cells) == 0 {
		return nil
	}
	return func(x int) bool {
		for _, c := range cells {
			if x == c {
				return true
			}
		}
		return false
	}
}

// --- OnlineController ---

// rmoHorizonChunk is the number of slots for which avoidance pairs are
// drawn at a time in online mode, where the horizon is open-ended.
const rmoHorizonChunk = 128

// Reset implements OnlineController.
func (s *RMO) Reset(rng *rand.Rand, numChaffs int) error {
	if numChaffs < 1 {
		return fmt.Errorf("chaff: numChaffs %d must be >= 1", numChaffs)
	}
	if rng == nil {
		return fmt.Errorf("chaff: RMO requires a rand source")
	}
	s.ep = &rmoEpisode{
		rng:      rng,
		userPrev: -1,
		locs:     make([]int, numChaffs),
		gammas:   make([]float64, numChaffs),
		avoid:    drawAvoid(rng, numChaffs, rmoHorizonChunk),
		horizon:  rmoHorizonChunk,
	}
	for i := range s.ep.locs {
		s.ep.locs[i] = -1
	}
	return nil
}

// Step implements OnlineController.
func (s *RMO) Step(userLoc int) ([]int, error) {
	ep := s.ep
	if ep == nil {
		return nil, fmt.Errorf("chaff: RMO.Step before Reset")
	}
	m, err := newMOTables(s.chain)
	if err != nil {
		return nil, err
	}
	if ep.slot >= ep.horizon {
		// Extend the avoidance schedule: redraw pairs for the next chunk.
		more := drawAvoid(ep.rng, len(ep.locs), rmoHorizonChunk)
		for u := range more {
			for up := range more[u] {
				more[u][up] += ep.horizon
			}
		}
		ep.avoid = more
		ep.horizon += rmoHorizonChunk
	}
	cur := make([]int, len(ep.locs))
	for u := range ep.locs {
		banned := bannedOnline(ep.avoid[u], ep.slot, userLoc, cur, u)
		ep.locs[u], ep.gammas[u] = m.step(ep.gammas[u], ep.userPrev, userLoc, ep.locs[u], banned)
		cur[u] = ep.locs[u]
	}
	ep.userPrev = userLoc
	ep.slot++
	out := make([]int, len(ep.locs))
	copy(out, ep.locs)
	return out, nil
}

func bannedOnline(avoidSlots []int, t, userLoc int, cur []int, u int) func(int) bool {
	var cells []int
	for up, slot := range avoidSlots {
		if slot != t {
			continue
		}
		if up == 0 {
			cells = append(cells, userLoc)
		} else if up-1 < u {
			cells = append(cells, cur[up-1])
		}
	}
	if len(cells) == 0 {
		return nil
	}
	return func(x int) bool {
		for _, c := range cells {
			if x == c {
				return true
			}
		}
		return false
	}
}
