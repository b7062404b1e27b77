package markov

import "math"

// EntropyRate returns the entropy rate H(X_t|X_{t−1}) of the chain in nats,
// i.e. Σ_x π(x) H(P(·|x)). The paper's Theorems V.4/V.5 compare the entropy
// of the user's movement with the chaff's.
func (c *Chain) EntropyRate() (float64, error) {
	pi, err := c.SteadyState()
	if err != nil {
		return 0, err
	}
	h := 0.0
	for i := 0; i < c.n; i++ {
		if pi[i] == 0 {
			continue
		}
		h += pi[i] * RowEntropy(c.row(i))
	}
	return h, nil
}

// RowEntropy returns the Shannon entropy (nats) of a distribution.
func RowEntropy(dist []float64) float64 {
	h := 0.0
	for _, v := range dist {
		if v > 0 {
			h -= v * math.Log(v)
		}
	}
	return h
}

// KL returns the Kullback-Leibler divergence D(p‖q) in nats. Entries where
// p > 0 but q = 0 contribute +Inf.
func KL(p, q []float64) float64 {
	d := 0.0
	for i := range p {
		if p[i] == 0 {
			continue
		}
		if q[i] == 0 {
			return math.Inf(1)
		}
		d += p[i] * math.Log(p[i]/q[i])
	}
	return d
}

// AvgPairwiseRowKL measures the temporal skewness of the chain as the
// average KL divergence between distinct rows of the transition matrix,
// the statistic quoted in Section VII-A.1 (0.44, 0.34, 8.18, 8.48 for
// models (a)–(d)). Infinite pairs (disjoint supports) are included as-is,
// so callers should ε-smooth chains first if finiteness is required.
func (c *Chain) AvgPairwiseRowKL() float64 {
	if c.n < 2 {
		return 0
	}
	sum, cnt := 0.0, 0
	for i := 0; i < c.n; i++ {
		for j := 0; j < c.n; j++ {
			if i == j {
				continue
			}
			sum += KL(c.row(i), c.row(j))
			cnt++
		}
	}
	return sum / float64(cnt)
}

// AvgPairwiseRowKLSmoothed computes AvgPairwiseRowKL after ε-smoothing
// every row (add eps to each entry, renormalise). Sparse empirical chains
// have rows with disjoint supports, which make the raw statistic infinite;
// the smoothed variant stays finite and comparable across models.
func (c *Chain) AvgPairwiseRowKLSmoothed(eps float64) float64 {
	if c.n < 2 || eps <= 0 {
		return c.AvgPairwiseRowKL()
	}
	rows := make([][]float64, c.n)
	denom := 1 + eps*float64(c.n)
	for i := range rows {
		src := c.row(i)
		row := make([]float64, c.n)
		for j := range row {
			row[j] = (src[j] + eps) / denom
		}
		rows[i] = row
	}
	sum, cnt := 0.0, 0
	for i := 0; i < c.n; i++ {
		for j := 0; j < c.n; j++ {
			if i == j {
				continue
			}
			sum += KL(rows[i], rows[j])
			cnt++
		}
	}
	return sum / float64(cnt)
}

// CollisionProbability returns Σ_x π(x)², the probability that two
// independent stationary copies of the chain coincide — the N→∞ limit of
// the IM strategy's tracking accuracy (Eq. 11).
func (c *Chain) CollisionProbability() (float64, error) {
	pi, err := c.SteadyState()
	if err != nil {
		return 0, err
	}
	s := 0.0
	for _, v := range pi {
		s += v * v
	}
	return s, nil
}
