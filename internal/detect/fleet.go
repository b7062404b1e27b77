package detect

import (
	"errors"
	"fmt"
	"math"

	"chaffmec/internal/markov"
)

// Fleet is the ML eavesdropper's view of a fixed observed population:
// the trace-driven study (Section VII-B) observes the same recorded
// trajectories in every Monte-Carlo run, and only the protected user's
// chaffs change between runs. NewFleet runs the fleet's prefix
// log-likelihoods once and keeps, per slot, their maximum and the
// members tied within llTieTol of it; Track then scores one run's chaffs
// against that table instead of re-scoring the whole fleet.
//
// A Fleet is immutable after construction and safe for concurrent use.
// It keeps the trajectories it was built from, which must not change.
type Fleet struct {
	chain *markov.Chain
	logPi []float64
	trs   []markov.Trajectory

	// best[t] is the fleet's maximum prefix log-likelihood at slot t.
	// Slot t's tie set is tieIdx/tieLL[off[t]:off[t+1]]: the members v
	// with best[t]-v <= llTieTol, or every member when best[t] is -Inf
	// (all prefixes impossible), the uniform guess appendArgmaxSet falls
	// back to.
	best   []float64
	off    []int32
	tieIdx []int32
	tieLL  []float64
}

// NewFleet scores the fleet trs under chain. The running
// log-likelihoods accumulate in the block scorer's order — log π(x₀),
// then += log P per slot — so every stored value has its bits.
func NewFleet(chain *markov.Chain, trs []markov.Trajectory) (*Fleet, error) {
	if len(trs) == 0 {
		return nil, errors.New("detect: no trajectories")
	}
	T := len(trs[0])
	if T < 1 {
		return nil, errors.New("detect: empty trajectories")
	}
	n := chain.NumStates()
	for u, tr := range trs {
		if len(tr) != T {
			return nil, fmt.Errorf("detect: trajectory %d has length %d, want %d", u, len(tr), T)
		}
		if err := tr.Validate(n); err != nil {
			return nil, err
		}
	}
	logPi, err := chain.LogSteadyState()
	if err != nil {
		return nil, err
	}
	f := &Fleet{
		chain: chain,
		logPi: logPi,
		trs:   trs,
		best:  make([]float64, T),
		off:   make([]int32, T+1),
	}
	logp := chain.LogProbs()
	ll := make([]float64, len(trs))
	for t := 0; t < T; t++ {
		best := math.Inf(-1)
		for u, tr := range trs {
			if t == 0 {
				ll[u] = logPi[tr[0]]
			} else {
				ll[u] += logp[tr[t-1]*n+tr[t]]
			}
			best = max(best, ll[u])
		}
		f.best[t] = best
		for u, v := range ll {
			if math.IsInf(best, -1) || best-v <= llTieTol {
				f.tieIdx = append(f.tieIdx, int32(u))
				f.tieLL = append(f.tieLL, v)
			}
		}
		f.off[t+1] = int32(len(f.tieIdx))
	}
	return f, nil
}

// Track writes to dst the per-slot tracking accuracy of fleet member
// user when the eavesdropper observes the whole fleet plus chaffs: the
// share of slot t's tie set that sits in the user's cell. ll is the
// caller's scratch for the chaffs' running log-likelihoods (at least
// len(chaffs) entries). The series is bit-identical to the block
// scorer's Tracking series for a block that packs the fleet, then the
// chaffs: a chaff can only raise the maximum, and since floating-point
// subtraction is monotone, a member outside the fleet's own tie set
// never ties a larger one.
//
//chaffmec:hotpath
func (f *Fleet) Track(user int, chaffs []markov.Trajectory, ll, dst []float64) error {
	T := len(f.best)
	if user < 0 || user >= len(f.trs) {
		return fmt.Errorf("detect: user index %d outside [0,%d)", user, len(f.trs))
	}
	if len(dst) != T {
		return fmt.Errorf("detect: tracking series has length %d, want %d", len(dst), T)
	}
	if len(ll) < len(chaffs) {
		return fmt.Errorf("detect: %d log-likelihood slots for %d chaffs", len(ll), len(chaffs))
	}
	n := f.chain.NumStates()
	for i, ch := range chaffs {
		if len(ch) != T {
			return fmt.Errorf("detect: chaff %d has length %d, want %d", i, len(ch), T)
		}
		for _, x := range ch {
			if x < 0 || x >= n {
				return fmt.Errorf("detect: chaff %d state %d outside [0,%d)", i, x, n)
			}
		}
	}
	ll = ll[:len(chaffs)]
	logp := f.chain.LogProbs()
	userTr := f.trs[user]
	for t := 0; t < T; t++ {
		best := f.best[t]
		for i, ch := range chaffs {
			if t == 0 {
				ll[i] = f.logPi[ch[0]]
			} else {
				ll[i] += logp[ch[t-1]*n+ch[t]]
			}
			best = max(best, ll[i])
		}
		userState := userTr[t]
		idx, lls := f.tieIdx[f.off[t]:f.off[t+1]], f.tieLL[f.off[t]:f.off[t+1]]
		ties, hits := 0, 0
		if math.IsInf(best, -1) {
			// Every prefix impossible: a uniform guess over all
			// trajectories; the stored tie set is the whole fleet.
			ties = len(f.trs) + len(chaffs)
			for _, u := range idx {
				if f.trs[u][t] == userState {
					hits++
				}
			}
			for _, ch := range chaffs {
				if ch[t] == userState {
					hits++
				}
			}
		} else {
			for k, v := range lls {
				if best-v <= llTieTol {
					ties++
					if f.trs[idx[k]][t] == userState {
						hits++
					}
				}
			}
			for i, ch := range chaffs {
				if best-ll[i] <= llTieTol {
					ties++
					if ch[t] == userState {
						hits++
					}
				}
			}
		}
		dst[t] = float64(hits) / float64(ties)
	}
	return nil
}
