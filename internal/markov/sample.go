package markov

import (
	"fmt"
	"math/rand"
)

// SampleDist draws an index from the distribution dist using rng with a
// linear cumulative scan. dist must sum to ~1; the final index absorbs
// rounding slack. For repeated draws from the same distribution build an
// AliasTable instead — this O(n) scan is kept as the reference
// implementation the alias path is differentially tested against.
func SampleDist(rng *rand.Rand, dist []float64) int {
	u := rng.Float64()
	acc := 0.0
	for i, v := range dist {
		acc += v
		if u < acc {
			return i
		}
	}
	return len(dist) - 1
}

// Step samples the successor of state from in O(1) via the row's alias
// table (built lazily on first use, shared by all samplers of the
// chain). It consumes exactly one uniform variate, like a cumulative
// scan of the row, but maps it to a successor through the alias layout,
// so the two draw different (identically distributed) values from the
// same stream.
func (c *Chain) Step(rng *rand.Rand, from int) int {
	return c.rowAliasFlat().draw(rng, from)
}

// Sample draws a trajectory of length T: the initial state from the
// stationary distribution, subsequent states from the transition matrix.
// Both draws go through the chain's alias tables (O(1) per slot).
func (c *Chain) Sample(rng *rand.Rand, T int) (Trajectory, error) {
	if T <= 0 {
		return nil, fmt.Errorf("markov: trajectory length %d must be positive", T)
	}
	tr := make(Trajectory, T)
	if err := c.SampleInto(rng, tr); err != nil {
		return nil, err
	}
	return tr, nil
}

// SampleInto is Sample into a caller-owned trajectory of the desired
// length, drawing exactly the same states from the stream. It keeps
// batch harnesses allocation-free on their warm path.
func (c *Chain) SampleInto(rng *rand.Rand, tr Trajectory) error {
	if len(tr) == 0 {
		return fmt.Errorf("markov: trajectory length %d must be positive", len(tr))
	}
	start, err := c.steadyAliasTable()
	if err != nil {
		return err
	}
	fa := c.rowAliasFlat()
	tr[0] = start.Draw(rng)
	for t := 1; t < len(tr); t++ {
		tr[t] = fa.draw(rng, tr[t-1])
	}
	return nil
}

// SampleFrom draws a trajectory of length T starting at the given state.
func (c *Chain) SampleFrom(rng *rand.Rand, start, T int) (Trajectory, error) {
	if T <= 0 {
		return nil, fmt.Errorf("markov: trajectory length %d must be positive", T)
	}
	if start < 0 || start >= c.n {
		return nil, fmt.Errorf("markov: start state %d outside [0,%d)", start, c.n)
	}
	tr := make(Trajectory, T)
	tr[0] = start
	for t := 1; t < T; t++ {
		tr[t] = c.Step(rng, tr[t-1])
	}
	return tr, nil
}
