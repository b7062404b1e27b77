package chaff

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"

	"chaffmec/internal/markov"
	"chaffmec/internal/trellis"
)

// OO is the optimal offline strategy (Section IV-C, Algorithm 1): given
// the user's entire trajectory, the chaff follows a trajectory that
// (i) out-weighs the user's likelihood so the ML detector picks the chaff
// (constraint (5)), and (ii) among such trajectories co-locates with the
// user the minimum number of times (objective (4)). When the user's own
// trajectory is the maximum-likelihood one, constraint (5) is infeasible
// and the strategy switches to likelihood equality, forcing the detector
// into a coin flip, exactly as the paper prescribes.
//
// The implementation is the paper's dynamic program over the Fig. 2
// trellis with state (slot, cell, remaining co-location budget), filled
// budget-major: the unconstrained Viterbi column V, then budget columns
// 0..i*, one at a time and stopping at the optimum i*, with the slots a
// column's budget cannot bind copied from V. V depends on the chain, the
// horizon and the exclusions but never on the user, so an OO computes it
// once and every later plan of that horizon reads the same snapshot: one
// Viterbi pass per OO and horizon, plus i*+1 budget columns per plan,
// instead of the paper's worst-case O(T²L²). The snapshot holds the
// latest horizon only: plans that alternate horizons on one OO
// recompute and reallocate V at every switch. The robust ROO variant
// builds a fresh OO, with its own exclusions, for every chaff, so it
// pays the pass on every plan. Plan is safe for concurrent use; its
// scratch comes from a shared pool.
//
// Every cell of V and of a budget column is one min over the cell's
// successors, and bestSuccessor is the one scan that takes it: the
// successors in −log P order (markov.RankedRows), stopped at the first
// whose −log P plus the next slot's least value exceeds the best so far.
// That bound prunes where rows are skewed (on the spatially-skewed L=10
// chain of the advanced-oo benchmark a scan stops at about the 2.6th of
// a row's 10 candidates), and saves little where rows are short, as on
// the sparse trace chain, so a column costs between O(T·L) and O(T·E).
type OO struct {
	chain *markov.Chain
	// excl restricts the chaff's trellis (used by the robust ROO variant);
	// nil for the plain strategy.
	excl *trellis.ExclusionSet
	// vit is the latest horizon's V (see viterbiFor).
	vit atomic.Pointer[ooViterbi]
}

// ooViterbi is the Viterbi column V of one horizon and its backpointers,
// flat and indexed [t*L+x], so len(v) = T·L names the horizon. It is
// read-only once published: plans on many goroutines read it at once.
type ooViterbi struct {
	v     []float64
	vBack []int32
}

// NewOO returns the optimal offline strategy over the user's chain.
func NewOO(chain *markov.Chain) *OO { return &OO{chain: chain} }

var _ Strategy = (*OO)(nil)
var _ TrajectoryMapper = (*OO)(nil)

// Name implements Strategy.
func (s *OO) Name() string { return "OO" }

// OOResult reports the planned chaff trajectory and the achieved optimum.
type OOResult struct {
	// Chaff is the planned chaff trajectory.
	Chaff markov.Trajectory
	// Intersections is i*, the number of slots the chaff co-locates with
	// the user (the optimal value of objective (4)).
	Intersections int
	// Strict reports whether the likelihood constraint (5) was satisfied
	// strictly; false means the equality fallback (detector coin flip) or,
	// under exclusions, the best-achievable-likelihood fallback was used.
	Strict bool
	// ChaffCost and UserCost are the negative log-likelihoods of the two
	// trajectories (path lengths in the Fig. 2 graph).
	ChaffCost, UserCost float64
}

// ooWork is Plan's scratch, pooled so a warm Plan allocates only its
// result. Every column is flat, indexed [t*L+x].
type ooWork struct {
	prev []float64 // K_t(x,i−1)
	cur  []float64 // K_t(x,i)
	// prevMin[t] and curMin[t] are min_x of prev's and cur's slot t, for
	// the slots column computes: the bounds of bestSuccessor's scans.
	prevMin, curMin []float64
	// back holds the backpointers of columns 0..i, column after column:
	// back[i*T*L + t*L + x] is the successor of (t,x) under budget i.
	back []int32
}

// ooPool shares workspaces across goroutines: one OO is used at once by
// every engine worker and by the advanced detector's Γ.
var ooPool = sync.Pool{New: func() any { return new(ooWork) }}

// Plan computes the optimal chaff trajectory for the given user trajectory.
func (s *OO) Plan(user markov.Trajectory) (*OOResult, error) {
	res, err := s.plan(user, nil, len(user))
	if err != nil {
		return nil, err
	}
	return &res, nil
}

// plan is Plan writing the chaff into tr (len(tr) = len(user)), or into
// a fresh trajectory when tr is nil. It fills budget columns 0..within
// at most: when i* > within it returns a zero OOResult (nil Chaff) and
// allocates nothing (see GammaWithin). A cap of len(user) never binds.
//
// K_t(x,i) is the min cost from (slot t, cell x) to the sink visiting
// the user's path at most i times, counting slot t itself. Column i of K
// reads only column i (off the user's cell) and column i−1 (on it), so
// the DP fills one budget column over all slots at a time and stops at
// the first column that meets the stop test. The unconstrained Viterbi
// column V gives the stop test's target up front: budget T never binds,
// so k0[T] = min_x −log π(x) + V_0(x). Budget i cannot bind at slots
// t ≥ T−i either, so there K_t(·,i) and its backpointers are V's,
// copied rather than recomputed. V comes from the OO's snapshot for
// this horizon (viterbiFor), which plan only reads.
func (s *OO) plan(user, tr markov.Trajectory, within int) (OOResult, error) {
	c := s.chain
	T := len(user)
	if T == 0 {
		return OOResult{}, fmt.Errorf("chaff: empty user trajectory")
	}
	if err := user.Validate(c.NumStates()); err != nil {
		return OOResult{}, err
	}
	userLL, err := c.LogLikelihood(user)
	if err != nil {
		return OOResult{}, err
	}
	logPi, err := c.LogSteadyState()
	if err != nil {
		return OOResult{}, err
	}
	userCost := -userLL
	L := c.NumStates()
	TL := T * L

	w := ooPool.Get().(*ooWork)
	defer ooPool.Put(w)
	w.prev, w.cur = grow(w.prev, TL), grow(w.cur, TL)
	w.prevMin, w.curMin = grow(w.prevMin, T), grow(w.curMin, T)
	w.back = w.back[:0]

	v, vBack := s.viterbiFor(T)
	minCost, _ := sourceFold(logPi, v[:L])
	if math.IsInf(minCost, 1) {
		// No path at all: exclusions sever the whole trellis.
		return OOResult{}, infeasible(T)
	}
	tol := 1e-9 * (1 + math.Abs(userCost))
	strict := minCost < userCost-tol

	// Column T equals V, so the stop test passes by i = T at the latest.
	for i := 0; i <= T; i++ {
		// Past the cap a miss is proved, unless the user trajectory is
		// impossible: then tol is +Inf, the stop test passes at column 0
		// whatever k is, and only that column tells a chaff from
		// ErrInfeasible.
		if i > within && !math.IsInf(userCost, 1) {
			return OOResult{}, nil
		}
		w.prev, w.cur = w.cur, w.prev
		w.prevMin, w.curMin = w.curMin, w.prevMin
		w.back = slices.Grow(w.back, TL)[:(i+1)*TL]
		s.column(w, v, vBack, user, i)
		k, x0 := sourceFold(logPi, w.cur[:L])
		// The strict test (5), or else the equality fallback (detector
		// coin flip) — or, under exclusions that sever every path at
		// least as likely as the user's, the best-achievable-likelihood
		// fallback.
		stop := k <= minCost+tol
		if strict {
			stop = k < userCost-tol
		}
		if !stop {
			continue
		}
		if x0 < 0 {
			// An impossible user, and no path that avoids it.
			return OOResult{}, infeasible(T)
		}
		if tr == nil {
			tr = make(markov.Trajectory, T)
		}
		if err := w.reconstruct(user, tr, i, x0, L); err != nil {
			return OOResult{}, err
		}
		return OOResult{Chaff: tr, Intersections: i, Strict: strict, ChaffCost: k, UserCost: userCost}, nil
	}
	return OOResult{}, fmt.Errorf("chaff: OO found no feasible chaff trajectory (horizon %d)", T)
}

// infeasible is plan's error when the chaff has no trajectory at all.
func infeasible(T int) error {
	return fmt.Errorf("chaff: OO on a length-%d trajectory: %w", T, trellis.ErrInfeasible)
}

// viterbiFor returns V and its backpointers for horizon T from the OO's
// snapshot, building and publishing a new one when the horizon differs:
// goroutines that race on a first use each compute a bit-identical copy
// and the last store wins. The snapshot is never written after Store.
func (s *OO) viterbiFor(T int) ([]float64, []int32) {
	TL := T * s.chain.NumStates()
	if p := s.vit.Load(); p != nil && len(p.v) == TL {
		return p.v, p.vBack
	}
	p := &ooViterbi{v: make([]float64, TL), vBack: make([]int32, TL)}
	s.viterbi(p.v, p.vBack, T)
	s.vit.Store(p)
	return p.v, p.vBack
}

// viterbi fills the unconstrained column V_t(x) and its backpointers:
// the min cost from (t,x) to the sink on the chaff's trellis. It folds
// each slot's minimum as it writes the slot, the bound of the scans of
// the slot before.
//
//chaffmec:hotpath
func (s *OO) viterbi(v []float64, back []int32, T int) {
	rows := s.chain.RankedSuccessors()
	L := s.chain.NumStates()
	inf := math.Inf(1)
	base := (T - 1) * L
	nextMin := inf
	for x := 0; x < L; x++ {
		v[base+x] = 0
		if s.excl.Excluded(x, T-1) {
			v[base+x] = inf
		}
		back[base+x] = -1
		if v[base+x] < nextMin {
			nextMin = v[base+x]
		}
	}
	for t := T - 2; t >= 0; t-- {
		row, next := v[t*L:(t+1)*L], v[(t+1)*L:(t+2)*L]
		brow := back[t*L : (t+1)*L]
		rowMin := inf
		for x := 0; x < L; x++ {
			k, kx := inf, int32(-1)
			if !s.excl.Excluded(x, t) {
				k, kx = bestSuccessor(rows, x, next, nextMin)
			}
			row[x], brow[x] = k, kx
			if k < rowMin {
				rowMin = k
			}
		}
		nextMin = rowMin
	}
}

// column fills K_t(·,i) into w.cur and its backpointers into the last
// column of w.back, reading column i−1 from w.prev and, read-only, V and
// its backpointers from v and vBack. It records each computed slot's
// minimum in w.curMin as it writes the slot, for the scans of the slot
// before it and of column i+1.
//
//chaffmec:hotpath
func (s *OO) column(w *ooWork, v []float64, vBack []int32, user markov.Trajectory, i int) {
	rows := s.chain.RankedSuccessors()
	L := s.chain.NumStates()
	T := len(user)
	inf := math.Inf(1)
	cur, prev := w.cur, w.prev
	curMin, prevMin := w.curMin, w.prevMin
	back := w.back[i*T*L:]
	// Slots t ≥ T−i: the budget cannot bind.
	free := max(T-i, 0)
	copy(cur[free*L:], v[free*L:])
	copy(back[free*L:], vBack[free*L:])
	top := free - 1
	if i == 0 {
		// Base slot T−1: the user's cell needs budget 1.
		base := (T - 1) * L
		m := inf
		for x := 0; x < L; x++ {
			cur[base+x] = v[base+x]
			if x == user[T-1] {
				cur[base+x] = inf
			}
			back[base+x] = -1
			if cur[base+x] < m {
				m = cur[base+x]
			}
		}
		curMin[T-1] = m
		top = T - 2
	} else if free > 0 {
		// Slot free was copied from V; its minimum bounds slot free−1.
		m := inf
		for _, k := range cur[free*L : (free+1)*L] {
			if k < m {
				m = k
			}
		}
		curMin[free] = m
	}
	for t := top; t >= 0; t-- {
		row, brow := cur[t*L:(t+1)*L], back[t*L:(t+1)*L]
		vrow := v[t*L : (t+1)*L]
		curNext, prevNext := cur[(t+1)*L:(t+2)*L], prev[(t+1)*L:(t+2)*L]
		m := inf
		for x := 0; x < L; x++ {
			k, kx := inf, int32(-1)
			switch {
			case math.IsInf(vrow[x], 1):
				// Excluded, or no path to the sink under any budget.
			case x != user[t]:
				k, kx = bestSuccessor(rows, x, curNext, curMin[t+1])
			case i > 0:
				// Column i−1 computed its slot t+1: t+1 ≤ T−i.
				k, kx = bestSuccessor(rows, x, prevNext, prevMin[t+1])
			}
			row[x], brow[x] = k, kx
			if k < m {
				m = k
			}
		}
		curMin[t] = m
	}
}

// bestSuccessor returns min over successors x′ of x of −log P(x′|x) +
// next[x′] and its argmin, the lowest x′ among equal minima, or
// (+Inf, −1) when next is +Inf on every successor; nextMin is min(next).
// It is OO's one successor scan. The scan takes x's row of rows in rank
// order, so the costs −log P ascend, and stops at the first cost c with
// c + nextMin > best: floating-point + is monotone, so every later
// candidate is at least c + nextMin and can neither beat nor tie best.
// A candidate's value is the same sum a full scan takes, so the result
// is bit for bit the full scan's. The bound prunes where a row's P is
// skewed, and little where rows are short (a sparse chain).
//
//chaffmec:hotpath
func bestSuccessor(rows *markov.RankedRows, x int, next []float64, nextMin float64) (float64, int32) {
	to, cost := rows.RowCosts(x)
	cost = cost[:len(to)]
	best, bestX := math.Inf(1), int32(-1)
	for k, xn := range to {
		c := cost[k]
		if c+nextMin > best {
			break
		}
		if v := c + next[xn]; v < best || v == best && xn < bestX {
			best, bestX = v, xn
		}
	}
	return best, bestX
}

// sourceFold is the virtual source: min_x −log π(x) + k[x] over cells
// with π(x) > 0 and a finite k[x], and its argmin (−1 if none).
//
//chaffmec:hotpath
func sourceFold(logPi, k []float64) (float64, int) {
	best, bestX := math.Inf(1), -1
	for x, kx := range k {
		if math.IsInf(logPi[x], -1) || math.IsInf(kx, 1) {
			continue
		}
		if v := -logPi[x] + kx; v < best {
			best, bestX = v, x
		}
	}
	return best, bestX
}

// reconstruct walks budget column iStar's backpointers from the source
// cell x0 into tr (paper steps 1–2 after Algorithm 1, 0-indexed): each
// slot on the user's cell spends one unit of budget.
func (w *ooWork) reconstruct(user, tr markov.Trajectory, iStar, x0, L int) error {
	T := len(user)
	tr[0] = x0
	budget := iStar
	for t := 1; t < T; t++ {
		nh := w.back[budget*T*L+(t-1)*L+tr[t-1]]
		if nh < 0 {
			return fmt.Errorf("chaff: OO reconstruction hit a dead end at slot %d", t)
		}
		if tr[t-1] == user[t-1] {
			budget--
		}
		tr[t] = int(nh)
	}
	return nil
}

// Gamma implements TrajectoryMapper.
func (s *OO) Gamma(user markov.Trajectory) (markov.Trajectory, error) {
	return s.GammaWithin(user, len(user))
}

// GammaWithin is Γ with a co-location cap, for the advanced eavesdropper
// (a detect.CappedGammaFunc). It returns Γ(user), or nil once it has
// proved that Γ(user) co-locates with user more than within times; a
// miss allocates nothing. The proof is to stop the budget-major DP after
// column within, and it is exact because Γ(user) shares exactly i* =
// Intersections slots with user. More is impossible: reconstruction
// spends one unit of budget per shared slot. Fewer is impossible too: a
// path sharing j < i* slots is feasible in column j, and floating-point
// + is monotone, so column j's k would be ≤ k_{i*} and its stop test
// would already have passed. Hence when i* > within, Γ(user) equals no
// trajectory that co-locates with user at most within times. Errors
// (invalid input, trellis.ErrInfeasible) are Gamma's whatever the cap.
//
// The cap saves the columns within+1..i*. A chaff co-locating with its
// planned-for user few times is cut short. Replicated chaffs overlap
// each other in all T slots, so they cap each other at T and the cap
// saves nothing; ProvesMiss covers them instead whenever the strict
// constraint (5) holds for the chaff, without running the DP at all.
func (s *OO) GammaWithin(user markov.Trajectory, within int) (markov.Trajectory, error) {
	res, err := s.plan(user, nil, within)
	if err != nil {
		return nil, err
	}
	return res.Chaff, nil
}

// ProvesMiss reports, from trajectory costs alone, that Γ(trs[v])
// equals no trs[u] with u ≠ v, so the advanced eavesdropper may skip
// computing it. A true is a proof; false only means "run the DP".
//
// Γ(x) stops at the first budget column whose DP cost k passes the stop
// test: k < c_x − tol when the strict constraint (5) is feasible, else
// k ≤ minCost + tol, with c_x = −log p(x) and tol and minCost as plan
// computes them. k is the DP's own sum of the chaff's T non-negative
// path terms, taken back to front; c_u, from LogLikelihood, sums the
// same terms front to back. Two recursive sums of T non-negative terms
// differ by at most 2γ_{T−1}·c_u, so k_u ≥ c_u − c_u·eps with eps =
// 4T·2⁻⁵³, which also absorbs the rounding of that bound. A candidate
// whose bound already fails the stop test cannot be Γ(x), and nor can
// an impossible one (c_u = +Inf): every term of a planned chaff is
// finite. In strict mode the same bound prunes every copy of x, as a
// strict Γ(x) is cheaper than x by more than tol.
//
// It returns false wherever Γ(x) would fail, so a skipped call never
// hides an error: an invalid or impossible x, a severed trellis, ROO's
// exclusions (not covered by the proof) and T > 2²⁰, where the bound's
// first-order form stops holding.
//
//chaffmec:hotpath
func (s *OO) ProvesMiss(trs []markov.Trajectory, v int) bool {
	c := s.chain
	x := trs[v]
	T := len(x)
	if s.excl != nil || T == 0 || T > 1<<20 {
		return false
	}
	xLL, err := c.LogLikelihood(x)
	if err != nil || math.IsInf(xLL, -1) {
		return false
	}
	logPi, err := c.LogSteadyState()
	if err != nil {
		return false
	}
	vit, _ := s.viterbiFor(T)
	minCost, _ := sourceFold(logPi, vit[:c.NumStates()])
	if math.IsInf(minCost, 1) {
		return false
	}
	xCost := -xLL
	tol := float64(1e-9 * (1 + math.Abs(xCost)))
	strict := minCost < xCost-tol
	eps := float64(4*T) * 0x1p-53
	for u, cand := range trs {
		if u == v || len(cand) != T {
			continue
		}
		ll, err := c.LogLikelihood(cand)
		if err != nil {
			return false
		}
		cu := -ll
		if math.IsInf(cu, 1) {
			continue
		}
		lower := cu - float64(cu*eps)
		if strict && lower >= xCost-tol || !strict && lower > minCost+tol {
			continue
		}
		return false
	}
	return true
}

// GenerateChaffs implements Strategy; extra chaffs duplicate the optimal
// trajectory (a single chaff suffices against the deterministic detector).
func (s *OO) GenerateChaffs(_ *rand.Rand, user markov.Trajectory, numChaffs int) ([]markov.Trajectory, error) {
	if err := validateGenerate(user, numChaffs, s.chain.NumStates()); err != nil {
		return nil, err
	}
	tr, err := s.Gamma(user)
	if err != nil {
		return nil, err
	}
	return replicate(tr, numChaffs), nil
}
