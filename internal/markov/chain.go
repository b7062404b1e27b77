// Package markov implements the discrete-time finite-state Markov chain
// machinery that underpins the chaffmec library: row-stochastic transition
// matrices with sparse successor lists, steady-state solvers, trajectory
// sampling, log-likelihood evaluation, entropy and Kullback-Leibler
// statistics, and mixing-time computation.
//
// States are integers in [0, N) where N is the number of states (cells in
// the mobile-edge-cloud setting). All probability arithmetic that could
// underflow is done in log space.
package markov

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
)

// ProbTolerance is the maximum deviation from 1.0 tolerated for a row sum
// when validating a transition matrix.
const ProbTolerance = 1e-9

// Chain is an immutable discrete-time Markov chain over states 0..N-1.
// The zero value is not usable; construct chains with New.
//
// The transition matrix and its log live in flat row-major arrays
// (index from*n+to): the sampling and scoring hot paths walk contiguous
// memory instead of chasing per-row slice headers.
type Chain struct {
	n    int
	p    []float64 // row-stochastic transition matrix, row-major n*n
	logp []float64 // log(p), with log(0) = -Inf, row-major n*n
	succ [][]int   // successor lists: states with positive probability

	steadyOnce sync.Once
	steady     []float64
	steadyErr  error

	// log π, cached element-wise so the per-run likelihood hot paths never
	// re-copy the steady state or re-take logs. See steady.go.
	logSteadyOnce sync.Once
	logSteady     []float64
	logSteadyErr  error

	// Alias tables for O(1) sampling, built lazily and shared: the rows
	// flat-encoded into one contiguous backing array, plus one table for
	// the stationary distribution. See alias.go.
	aliasOnce       sync.Once
	rowAlias        flatAlias
	steadyAliasOnce sync.Once
	steadyAlias     *AliasTable
	steadyAliasErr  error

	// Candidate cells ranked for the myopic chaff step, built lazily and
	// shared: every row's successors by log P, and the states with π > 0
	// by log π. See ranked.go.
	rankedOnce       sync.Once
	ranked           RankedRows
	rankedSteadyOnce sync.Once
	rankedSteady     []int32
	rankedSteadyErr  error
}

// New validates p as a row-stochastic matrix and returns the chain.
// It copies p, so the caller may reuse the backing slices.
func New(p [][]float64) (*Chain, error) {
	n := len(p)
	if n == 0 {
		return nil, errors.New("markov: empty transition matrix")
	}
	c := &Chain{
		n:    n,
		p:    make([]float64, n*n),
		logp: make([]float64, n*n),
		succ: make([][]int, n),
	}
	for i, row := range p {
		if len(row) != n {
			return nil, fmt.Errorf("markov: row %d has %d entries, want %d", i, len(row), n)
		}
		sum := 0.0
		cp := c.p[i*n : (i+1)*n]
		lg := c.logp[i*n : (i+1)*n]
		var succ []int
		for j, v := range row {
			if math.IsNaN(v) || v < 0 || v > 1+ProbTolerance {
				return nil, fmt.Errorf("markov: P[%d][%d] = %v is not a probability", i, j, v)
			}
			sum += v
			cp[j] = v
			if v > 0 {
				lg[j] = math.Log(v)
				succ = append(succ, j)
			} else {
				lg[j] = math.Inf(-1)
			}
		}
		if math.Abs(sum-1) > ProbTolerance {
			return nil, fmt.Errorf("markov: row %d sums to %v, want 1", i, sum)
		}
		if len(succ) == 0 {
			return nil, fmt.Errorf("markov: row %d has no positive transition", i)
		}
		c.succ[i] = succ
	}
	return c, nil
}

// MustNew is like New but panics on error. It is intended for tests and
// for matrices constructed by code that guarantees validity.
func MustNew(p [][]float64) *Chain {
	c, err := New(p)
	if err != nil {
		panic(err)
	}
	return c
}

// NewWithStationary builds a chain whose SteadyState is pinned to the
// given distribution instead of being solved from the balance equations.
// This is how empirical chains fitted from traces carry their empirical
// occupancy distribution (Section VII-B.1 uses the empirical steady state,
// and a count-based transition matrix may be reducible, making the solved
// stationary distribution undefined). pi is validated to be a distribution
// of the right length and is copied.
func NewWithStationary(p [][]float64, pi []float64) (*Chain, error) {
	c, err := New(p)
	if err != nil {
		return nil, err
	}
	if len(pi) != c.n {
		return nil, fmt.Errorf("markov: stationary distribution length %d, want %d", len(pi), c.n)
	}
	sum := 0.0
	cp := make([]float64, len(pi))
	for i, v := range pi {
		if math.IsNaN(v) || v < 0 || v > 1+ProbTolerance {
			return nil, fmt.Errorf("markov: π[%d] = %v is not a probability", i, v)
		}
		cp[i] = v
		sum += v
	}
	if math.Abs(sum-1) > 1e-6 {
		return nil, fmt.Errorf("markov: stationary distribution sums to %v, want 1", sum)
	}
	c.steadyOnce.Do(func() { c.steady = cp })
	return c, nil
}

// NumStates returns the number of states N.
func (c *Chain) NumStates() int { return c.n }

// Prob returns P(to|from).
func (c *Chain) Prob(from, to int) float64 { return c.p[from*c.n+to] }

// LogProb returns log P(to|from), -Inf when the transition is impossible.
func (c *Chain) LogProb(from, to int) float64 { return c.logp[from*c.n+to] }

// row returns the outgoing distribution of state from as a view into the
// flat matrix.
func (c *Chain) row(from int) []float64 { return c.p[from*c.n : (from+1)*c.n] }

// Row returns a copy of the outgoing distribution of state from.
func (c *Chain) Row(from int) []float64 {
	out := make([]float64, c.n)
	copy(out, c.row(from))
	return out
}

// LogProbs returns the flat row-major log-transition matrix (n*n entries,
// index from*n+to, impossible transitions -Inf) backing LogProb. It is
// the chain's shared storage and must not be modified; batch scoring
// kernels read it directly to avoid a method call per transition.
func (c *Chain) LogProbs() []float64 { return c.logp }

// Successors returns the states reachable from `from` in one step with
// positive probability. The returned slice must not be modified.
func (c *Chain) Successors(from int) []int { return c.succ[from] }

// NumTransitions returns the total number of positive transitions (edges).
func (c *Chain) NumTransitions() int {
	e := 0
	for _, s := range c.succ {
		e += len(s)
	}
	return e
}

// Matrix returns a deep copy of the transition matrix.
func (c *Chain) Matrix() [][]float64 {
	out := make([][]float64, c.n)
	for i := range out {
		out[i] = make([]float64, c.n)
		copy(out[i], c.row(i))
	}
	return out
}

// String renders a compact human-readable description.
func (c *Chain) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "markov.Chain{states: %d, transitions: %d}", c.n, c.NumTransitions())
	return b.String()
}

// MaxProbSuccessor returns the most likely successor of from, breaking ties
// by the lowest state index. This deterministic tie-break is load-bearing:
// the advanced eavesdropper of Section VI-A reproduces chaff trajectories
// and must agree with the user's computation.
func (c *Chain) MaxProbSuccessor(from int) int {
	row := c.row(from)
	best, bestP := -1, math.Inf(-1)
	for _, j := range c.succ[from] {
		if row[j] > bestP {
			best, bestP = j, row[j]
		}
	}
	return best
}

// MaxProbSuccessorExcluding returns the most likely successor of from that
// is not in the excluded set, -1 if every successor is excluded. Ties break
// to the lowest state index.
func (c *Chain) MaxProbSuccessorExcluding(from int, excluded func(int) bool) int {
	row := c.row(from)
	best, bestP := -1, math.Inf(-1)
	for _, j := range c.succ[from] {
		if excluded != nil && excluded(j) {
			continue
		}
		if row[j] > bestP {
			best, bestP = j, row[j]
		}
	}
	return best
}

// ArgmaxDist returns the index of the largest entry of dist, breaking ties
// by the lowest index.
func ArgmaxDist(dist []float64) int {
	best, bestP := -1, math.Inf(-1)
	for i, v := range dist {
		if v > bestP {
			best, bestP = i, v
		}
	}
	return best
}

// ArgmaxDistExcluding is ArgmaxDist restricted to indices where
// excluded(i) is false; it returns -1 if all indices are excluded.
func ArgmaxDistExcluding(dist []float64, excluded func(int) bool) int {
	best, bestP := -1, math.Inf(-1)
	for i, v := range dist {
		if excluded != nil && excluded(i) {
			continue
		}
		if v > bestP {
			best, bestP = i, v
		}
	}
	return best
}
