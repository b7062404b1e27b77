package chaff

import (
	"fmt"
	"math/rand"

	"chaffmec/internal/markov"
)

// BlockGenerator is the allocation-aware facet of a Strategy: generate
// chaffs directly into caller-owned trajectory buffers instead of
// allocating fresh ones per call. The batch Monte-Carlo harnesses
// (internal/sim, the trace scenario) keep one buffer
// set per engine worker and call GenerateInto every run, which is what
// takes the chaff-generation side of the hot path to ~0 steady-state
// allocations. Strategies that do not implement it fall back to
// GenerateChaffs transparently via GenerateInto.
type BlockGenerator interface {
	Strategy
	// GenerateChaffsInto fills dst (len(dst) = numChaffs) with chaff
	// trajectories for the given user trajectory, growing each dst[i] in
	// place as needed. It must draw exactly the same rng stream as
	// GenerateChaffs would for the same inputs, so batch and scalar
	// harnesses stay bit-identical.
	GenerateChaffsInto(rng *rand.Rand, user markov.Trajectory, dst []markov.Trajectory) error
}

// GenerateInto generates len(dst) chaffs for user into dst, dispatching
// to the strategy's BlockGenerator facet when it has one and otherwise
// copying the GenerateChaffs result into dst. Either way the rng draws
// are identical to a plain GenerateChaffs call, and dst's buffers are
// reused when large enough.
//
//chaffmec:hotpath
func GenerateInto(s Strategy, rng *rand.Rand, user markov.Trajectory, dst []markov.Trajectory) error {
	if bg, ok := s.(BlockGenerator); ok {
		return bg.GenerateChaffsInto(rng, user, dst)
	}
	trs, err := s.GenerateChaffs(rng, user, len(dst))
	if err != nil {
		return err
	}
	for i, tr := range trs {
		dst[i] = copyInto(dst[i], tr)
	}
	return nil
}

// grow resizes s to n entries, reusing its backing array when large
// enough.
//
//chaffmec:hotpath
func grow[S ~[]E, E any](s S, n int) S {
	if cap(s) < n {
		return make(S, n)
	}
	return s[:n]
}

// copyInto copies src into dst, growing dst as needed.
//
//chaffmec:hotpath
func copyInto(dst, src markov.Trajectory) markov.Trajectory {
	dst = grow(dst, len(src))
	copy(dst, src)
	return dst
}

var (
	_ BlockGenerator = (*IM)(nil)
	_ BlockGenerator = (*ML)(nil)
	_ BlockGenerator = (*CML)(nil)
	_ BlockGenerator = (*MO)(nil)
	_ BlockGenerator = (*OO)(nil)
)

// GenerateChaffsInto implements BlockGenerator: each chaff is sampled
// into its buffer with the exact draw sequence of GenerateChaffs.
//
//chaffmec:hotpath
func (s *IM) GenerateChaffsInto(rng *rand.Rand, user markov.Trajectory, dst []markov.Trajectory) error {
	if err := validateGenerate(user, len(dst), s.chain.NumStates()); err != nil {
		return err
	}
	for i := range dst {
		dst[i] = grow(dst[i], len(user))
		if err := s.chain.SampleInto(rng, dst[i]); err != nil {
			return fmt.Errorf("chaff: IM sampling: %w", err)
		}
	}
	return nil
}

// GenerateChaffsInto implements BlockGenerator by copying the cached ML
// trajectory into every buffer (cache entries are immutable once
// inserted, so copying outside the lock is safe).
//
//chaffmec:hotpath
func (s *ML) GenerateChaffsInto(_ *rand.Rand, user markov.Trajectory, dst []markov.Trajectory) error {
	if err := validateGenerate(user, len(dst), s.chain.NumStates()); err != nil {
		return err
	}
	s.mu.Lock()
	tr, ok := s.cache[len(user)]
	s.mu.Unlock()
	if !ok {
		var err error
		if tr, err = s.Trajectory(len(user)); err != nil {
			return err
		}
	}
	for i := range dst {
		dst[i] = copyInto(dst[i], tr)
	}
	return nil
}

// GenerateChaffsInto implements BlockGenerator: the deterministic CML
// trajectory is designed into dst[0] and replicated.
//
//chaffmec:hotpath
func (s *CML) GenerateChaffsInto(_ *rand.Rand, user markov.Trajectory, dst []markov.Trajectory) error {
	if err := validateGenerate(user, len(dst), s.chain.NumStates()); err != nil {
		return err
	}
	dst[0] = grow(dst[0], len(user))
	if err := s.gammaInto(user, dst[0]); err != nil {
		return err
	}
	for i := 1; i < len(dst); i++ {
		dst[i] = copyInto(dst[i], dst[0])
	}
	return nil
}

// GenerateChaffsInto implements BlockGenerator: the deterministic MO
// trajectory is designed into dst[0] and replicated.
//
//chaffmec:hotpath
func (s *MO) GenerateChaffsInto(_ *rand.Rand, user markov.Trajectory, dst []markov.Trajectory) error {
	if err := validateGenerate(user, len(dst), s.chain.NumStates()); err != nil {
		return err
	}
	dst[0] = grow(dst[0], len(user))
	if err := s.gammaInto(user, dst[0]); err != nil {
		return err
	}
	for i := 1; i < len(dst); i++ {
		dst[i] = copyInto(dst[i], dst[0])
	}
	return nil
}

// GenerateChaffsInto implements BlockGenerator: the optimal trajectory
// is planned into dst[0] and replicated. It draws no randomness.
//
//chaffmec:hotpath
func (s *OO) GenerateChaffsInto(_ *rand.Rand, user markov.Trajectory, dst []markov.Trajectory) error {
	if err := validateGenerate(user, len(dst), s.chain.NumStates()); err != nil {
		return err
	}
	dst[0] = grow(dst[0], len(user))
	if _, err := s.plan(user, dst[0], len(user)); err != nil {
		return err
	}
	for i := 1; i < len(dst); i++ {
		dst[i] = copyInto(dst[i], dst[0])
	}
	return nil
}
