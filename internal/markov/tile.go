package markov

// Tiled log-likelihood kernels. The eavesdropper's ML scoring (Eq. 1)
// reduces to accumulating log P(cur|prev) over every lane of a
// structure-of-arrays trajectory block; these kernels do that over a
// whole tile of lanes per call, written so the inner loop is
// straight-line float64 adds the compiler can pipeline:
//
//   - the tile is walked in 4-wide unrolled groups whose index
//     computations and gathers are independent, so the four logp loads
//     issue in parallel instead of serializing behind one add;
//   - there are no branches in the loop body — impossible transitions
//     contribute -Inf, and because every logp entry is ≤ 0 or -Inf
//     (never +Inf or NaN), -Inf is absorbing under addition: a lane that
//     goes impossible stays exactly -Inf through every later add, bit
//     for bit what the scalar LogLikelihood's early exit returns. The
//     scalar kernel keeps its exit as a per-trajectory epilogue; the
//     tile simply doesn't need one;
//   - bounds checks on the lane slices are hoisted to one reslice per
//     call (the data-dependent logp gather keeps its check, but the
//     unroll hides its latency).
//
// LogLikelihood remains the scalar differential oracle; the tile tests
// pin both against each other over dense, sparse and impossible
// trajectories.

// AddLogProbTile accumulates one slot's transition log-likelihoods over
// a tile of lanes: ll[i] += log P(cur[i] | prev[i]) for every i. All
// three slices must have at least len(ll) entries and every state must
// lie in [0, n) — callers (the block scorers) validate
// whole blocks once up front, which is what lets this inner loop stay
// branch-free.
//
//chaffmec:hotpath
func (c *Chain) AddLogProbTile(ll []float64, prev, cur []int32) {
	m := len(ll)
	if m == 0 || len(prev) < m || len(cur) < m {
		return
	}
	// One reslice hoists the per-element bounds checks of the three
	// lane arrays out of the loop.
	ll = ll[:m]
	prev = prev[:m:m]
	cur = cur[:m:m]
	n := c.n
	logp := c.logp
	i := 0
	for ; i+4 <= m; i += 4 {
		j0 := int(prev[i])*n + int(cur[i])
		j1 := int(prev[i+1])*n + int(cur[i+1])
		j2 := int(prev[i+2])*n + int(cur[i+2])
		j3 := int(prev[i+3])*n + int(cur[i+3])
		a0 := logp[j0]
		a1 := logp[j1]
		a2 := logp[j2]
		a3 := logp[j3]
		ll[i] += a0
		ll[i+1] += a1
		ll[i+2] += a2
		ll[i+3] += a3
	}
	for ; i < m; i++ {
		ll[i] += logp[int(prev[i])*n+int(cur[i])]
	}
}
