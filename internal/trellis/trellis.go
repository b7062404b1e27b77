// Package trellis implements the auxiliary layered graph of Fig. 2 of the
// paper: vertices are (slot, cell) pairs, edge costs are negative
// log-probabilities, and the maximum-likelihood trajectory of length T is
// the shortest path from the virtual source to the virtual sink. The
// graph is a layered DAG, so an exact layered dynamic program (Viterbi)
// solves it; the tests check it against Dijkstra's algorithm, the
// paper's description (Section IV-B).
package trellis

import (
	"errors"
	"fmt"
	"math"

	"chaffmec/internal/markov"
)

// ErrInfeasible reports that the exclusions leave no trajectory of the
// requested length. Small chains with many chaffs can over-constrain
// the trellis legitimately; callers that retry or skip such draws test
// for it with errors.Is.
var ErrInfeasible = errors.New("no feasible trajectory under exclusions")

// ExclusionSet marks (cell, slot) pairs a trajectory must avoid, as used by
// the robust RML/ROO strategies (Section VI-B). Slots are 0-indexed.
type ExclusionSet struct {
	bySlot map[int]map[int]bool
}

// NewExclusionSet returns an empty set.
func NewExclusionSet() *ExclusionSet {
	return &ExclusionSet{bySlot: make(map[int]map[int]bool)}
}

// Add marks (cell, slot) as forbidden.
func (e *ExclusionSet) Add(cell, slot int) {
	m, ok := e.bySlot[slot]
	if !ok {
		m = make(map[int]bool)
		e.bySlot[slot] = m
	}
	m[cell] = true
}

// Excluded reports whether (cell, slot) is forbidden. A nil receiver
// excludes nothing, so callers can pass nil for the unconstrained case.
func (e *ExclusionSet) Excluded(cell, slot int) bool {
	if e == nil {
		return false
	}
	return e.bySlot[slot][cell]
}

// Len returns the number of excluded pairs.
func (e *ExclusionSet) Len() int {
	if e == nil {
		return 0
	}
	n := 0
	for _, m := range e.bySlot {
		n += len(m)
	}
	return n
}

// MLTrajectory returns the trajectory of length T with the maximum
// log-likelihood log π(x₁) + Σ log P(x_t|x_{t−1}) (Eq. 2/3), together with
// that log-likelihood. Ties break toward lower cell indices at every
// layer, making the result deterministic. excl may be nil.
func MLTrajectory(c *markov.Chain, T int, excl *ExclusionSet) (markov.Trajectory, float64, error) {
	if T <= 0 {
		return nil, 0, fmt.Errorf("trellis: horizon %d must be positive", T)
	}
	pi, err := c.SteadyState()
	if err != nil {
		return nil, 0, err
	}
	L := c.NumStates()
	negInf := math.Inf(-1)

	best := make([]float64, L) // best log-likelihood ending at each cell
	next := make([]float64, L) // scratch for the next layer
	back := make([][]int32, T) // back[t][x] = predecessor of x at slot t
	for t := range back {
		back[t] = make([]int32, L)
	}
	for x := 0; x < L; x++ {
		if excl.Excluded(x, 0) || pi[x] <= 0 {
			best[x] = negInf
		} else {
			best[x] = math.Log(pi[x])
		}
		back[0][x] = -1
	}
	for t := 1; t < T; t++ {
		for x := 0; x < L; x++ {
			next[x] = negInf
			back[t][x] = -1
		}
		for prev := 0; prev < L; prev++ {
			if best[prev] == negInf {
				continue
			}
			for _, x := range c.Successors(prev) {
				if excl.Excluded(x, t) {
					continue
				}
				// Strict improvement + increasing prev order = lowest
				// predecessor index wins ties.
				if v := best[prev] + c.LogProb(prev, x); v > next[x] {
					next[x] = v
					back[t][x] = int32(prev)
				}
			}
		}
		best, next = next, best
	}
	// Terminal: lowest cell index among maxima.
	end, endLL := -1, negInf
	for x := 0; x < L; x++ {
		if best[x] > endLL {
			end, endLL = x, best[x]
		}
	}
	if end < 0 {
		return nil, 0, fmt.Errorf("trellis: length-%d trajectory: %w", T, ErrInfeasible)
	}
	tr := make(markov.Trajectory, T)
	tr[T-1] = end
	for t := T - 1; t > 0; t-- {
		tr[t-1] = int(back[t][tr[t]])
	}
	return tr, endLL, nil
}
