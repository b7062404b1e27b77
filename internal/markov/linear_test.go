package markov

import (
	"fmt"
	"math/rand"
)

// StepLinear samples the successor of state from with the O(successors)
// cumulative scan. It is the reference implementation for differential
// tests of the alias tables; simulation code should use Step.
func (c *Chain) StepLinear(rng *rand.Rand, from int) int {
	u := rng.Float64()
	acc := 0.0
	row := c.row(from)
	succ := c.succ[from]
	for _, j := range succ {
		acc += row[j]
		if u < acc {
			return j
		}
	}
	return succ[len(succ)-1]
}

// SampleLinear is Sample on the linear-scan reference path (SampleDist +
// StepLinear). It exists for differential tests against Sample; the two
// consume the same number of uniforms but produce different trajectories
// from the same stream.
func (c *Chain) SampleLinear(rng *rand.Rand, T int) (Trajectory, error) {
	if T <= 0 {
		return nil, fmt.Errorf("markov: trajectory length %d must be positive", T)
	}
	pi, err := c.SteadyState()
	if err != nil {
		return nil, err
	}
	tr := make(Trajectory, T)
	tr[0] = SampleDist(rng, pi)
	for t := 1; t < T; t++ {
		tr[t] = c.StepLinear(rng, tr[t-1])
	}
	return tr, nil
}
