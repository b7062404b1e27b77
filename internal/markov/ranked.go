package markov

import (
	"cmp"
	"math"
	"slices"
)

// Ranked tables serve two chaff strategies. The myopic step (MO,
// Algorithm 2) moves to the most likely next cell, or the second most
// likely one, by log P from the previous cell (log π at the first slot):
// with the candidates ranked once per chain, that choice is the first
// entry of a row that passes the step's exclusions, not a scan of every
// successor. The optimal offline DP (OO, Algorithm 1) takes each row's
// min over successors of −log P + K: scanning a row in rank order, its
// −log P costs ascend, so the scan can stop at the first cost whose sum
// with the least K of the next slot exceeds the best candidate so far.
//
// The ranking key is log P, not P: two distinct probabilities can round
// to one log value, so these tables must not stand in for the P-ranked
// MaxProbSuccessor(Excluding).

// RankedRows is the chain's successor lists, each reordered by log P
// descending with ties kept in index order, flat-encoded: row x is
// to[off[x]:off[x+1]], and cost[k] is −log P(to[k]|x), the edge's
// Fig. 2 path length, so a row's costs ascend. It is read-only and
// shared by every caller.
type RankedRows struct {
	off  []int32
	to   []int32
	cost []float64
}

// Row returns the successors of from ordered by log P(·|from)
// descending, ties in index order: the first entry that passes any
// filter is the filtered argmax, lowest index first among equal scores.
// The returned slice must not be modified.
func (r *RankedRows) Row(from int) []int32 { return r.to[r.off[from]:r.off[from+1]] }

// RowCosts returns Row(from) and, entry for entry, −log P(·|from): the
// costs ascend, and each is the negated LogProbs entry, bit for bit.
// The returned slices must not be modified.
func (r *RankedRows) RowCosts(from int) ([]int32, []float64) {
	lo, hi := r.off[from], r.off[from+1]
	return r.to[lo:hi], r.cost[lo:hi]
}

// RankedSuccessors returns the chain's ranked successor rows, built once
// on first use and shared.
func (c *Chain) RankedSuccessors() *RankedRows {
	c.rankedOnce.Do(func() {
		e := c.NumTransitions()
		rr := RankedRows{off: make([]int32, c.n+1), to: make([]int32, 0, e), cost: make([]float64, e)}
		for x, succ := range c.succ {
			lo := len(rr.to)
			for _, y := range succ {
				rr.to = append(rr.to, int32(y))
			}
			lp := c.logp[x*c.n : (x+1)*c.n]
			rankDescending(rr.to[lo:], lp)
			for k := lo; k < len(rr.to); k++ {
				rr.cost[k] = -lp[rr.to[k]]
			}
			rr.off[x+1] = int32(len(rr.to))
		}
		c.ranked = rr
	})
	return &c.ranked
}

// RankedSteadyState returns the states with π > 0 ordered by log π
// descending, ties kept in index order: the first slot's counterpart of
// a RankedSuccessors row. It is built once per chain on first use and
// shared; the returned slice must not be modified.
func (c *Chain) RankedSteadyState() ([]int32, error) {
	c.rankedSteadyOnce.Do(func() {
		logPi, err := c.LogSteadyState()
		if err != nil {
			c.rankedSteadyErr = err
			return
		}
		var cells []int32
		for x, v := range logPi {
			if v > math.Inf(-1) { // π > 0
				cells = append(cells, int32(x))
			}
		}
		rankDescending(cells, logPi)
		c.rankedSteady = cells
	})
	return c.rankedSteady, c.rankedSteadyErr
}

// rankDescending stably sorts the states in cells (given in index order)
// by score descending. No score is NaN: successors have finite log P,
// and the steady ranking keeps only cells with finite log π.
func rankDescending(cells []int32, score []float64) {
	slices.SortStableFunc(cells, func(a, b int32) int { return cmp.Compare(score[b], score[a]) })
}
