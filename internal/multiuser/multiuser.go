// Package multiuser evaluates the multi-user scenario the paper outlines
// in the remarks of Sections II-A and III: several users' services coexist
// in the MEC network, the eavesdropper targets one user of interest whose
// mobility model he knows (Eq. 1 applied to all observed trajectories),
// and the single-user results act as performance lower bounds because
// coexisting users (and their chaffs) provide additional cover.
//
// Execution is delegated to internal/engine, which also supplies the
// per-run seed derivation (rng.Derive): every run's RNG stream gets a
// full avalanche finish, replacing the earlier xor+multiply-only mixing
// whose adjacent runs produced correlated streams.
package multiuser

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"chaffmec/internal/chaff"
	"chaffmec/internal/detect"
	"chaffmec/internal/engine"
	"chaffmec/internal/markov"
	"chaffmec/internal/tune"
)

// Config describes one multi-user scenario.
type Config struct {
	// TargetChain is the mobility model of the user of interest; the
	// eavesdropper profiles and knows this chain.
	TargetChain *markov.Chain
	// OtherChains are the coexisting users' mobility models, one per
	// user, over the same cell space. They may equal TargetChain.
	OtherChains []*markov.Chain
	// Strategy, when non-nil, protects the target with NumChaffs chaffs.
	Strategy  chaff.Strategy
	NumChaffs int
	// OtherStrategies, when non-empty, protects the coexisting users too
	// (the heterogeneous population of the "hetero" scenario kind): entry
	// i generates OtherNumChaffs[i] chaffs for other user i, nil entries
	// leave that user unprotected. Both slices must align with
	// OtherChains. Chaffs are drawn right after their owner's trajectory,
	// so adding an unprotected user never perturbs the existing streams.
	OtherStrategies []chaff.Strategy
	OtherNumChaffs  []int
	// Horizon is the trajectory length T.
	Horizon int
	// Gamma, when non-nil, upgrades the eavesdropper to the strategy-aware
	// advanced detector of Section VI-A: trajectories recognizable as
	// Γ-chaffs of another observed trajectory are filtered before ML
	// detection. Leave nil for the basic Eq. 1 detector.
	Gamma detect.GammaFunc
	// CappedGamma, when non-nil, replaces Gamma: the same map taking the
	// co-location cap, which lets OO's Γ stop early (see
	// detect.AdvancedDetector). Results are the same bits.
	CappedGamma detect.CappedGammaFunc
}

func (c *Config) validate() error {
	switch {
	case c.TargetChain == nil:
		return errors.New("multiuser: config needs the target's chain")
	case c.Horizon < 1:
		return fmt.Errorf("multiuser: horizon %d must be >= 1", c.Horizon)
	case c.Strategy != nil && c.NumChaffs < 1:
		return errors.New("multiuser: strategy set but NumChaffs < 1")
	}
	L := c.TargetChain.NumStates()
	for i, oc := range c.OtherChains {
		if oc == nil {
			return fmt.Errorf("multiuser: other chain %d is nil", i)
		}
		if oc.NumStates() != L {
			return fmt.Errorf("multiuser: other chain %d has %d cells, want %d", i, oc.NumStates(), L)
		}
	}
	if len(c.OtherStrategies) > 0 {
		if len(c.OtherStrategies) != len(c.OtherChains) || len(c.OtherNumChaffs) != len(c.OtherChains) {
			return fmt.Errorf("multiuser: %d other strategies / %d chaff budgets for %d other users",
				len(c.OtherStrategies), len(c.OtherNumChaffs), len(c.OtherChains))
		}
		for i, s := range c.OtherStrategies {
			if s != nil && c.OtherNumChaffs[i] < 1 {
				return fmt.Errorf("multiuser: other user %d has a strategy but %d chaffs", i, c.OtherNumChaffs[i])
			}
		}
	}
	return nil
}

// Result aggregates the Monte-Carlo runs (possibly one shard of them).
type Result struct {
	// PerSlot is the mean per-slot tracking accuracy for the target;
	// PerSlotStdErr its standard error and Overall its time average.
	PerSlot       []float64
	PerSlotStdErr []float64
	Overall       float64
	// Runs is the number of runs aggregated (the shard's size when the
	// options select one).
	Runs int
	// TrackStats is the raw position-aware accumulator behind PerSlot —
	// the exactly-mergeable partial the Job/Report shard workflow
	// serializes.
	TrackStats *engine.SeriesStats
}

// muWorker is the per-worker scratch: the detection workspace, the SoA
// target sample block and reused trajectory buffers for the coexisting
// users and every chaff group. All of it is reused across the worker's
// blocks, taking the steady-state per-run allocations to ~0.
type muWorker struct {
	ws        *detect.Workspace
	targets   []int32               // markov.SampleBatch layout: targets[t*B+r]
	tbuf      markov.Trajectory     // run r's target, gathered for chaff generation
	obuf      markov.Trajectory     // current other user's trajectory
	chaffBufs []markov.Trajectory   // target's chaffs
	otherBufs [][]markov.Trajectory // chaffs of each protected other user
}

// Run executes the scenario on the shared Monte-Carlo engine (the whole
// experiment, or the global-run slice opts.Shard selects; ctx cancels
// between blocks): each run samples the target, the coexisting users and
// the chaffs, and evaluates the per-slot prefix detector that knows the
// target's chain.
func Run(ctx context.Context, cfg Config, opts engine.Options) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	// Detector construction is hoisted out of the per-run loop; both
	// detectors are immutable and shared by all workers.
	scorer, err := newDetector(&cfg)
	if err != nil {
		return nil, err
	}
	o := opts.Normalized()
	start, _ := o.Range()
	track := engine.NewSeriesStatsAt(cfg.Horizon, start)

	// Whole dispatch chunks are sampled and scored through the SoA
	// kernels, tune.BlockSize runs per chunk (chunking never changes
	// results).
	err = engine.Run(ctx, o, engine.Config[*muWorker, []float64]{
		NewWorker: func(int) (*muWorker, error) {
			return newWorker(&cfg), nil
		},
		FreeWorker: func(w *muWorker) { w.ws.Release() },
		RunBlock: func(w *muWorker, start int, rngs []*rand.Rand, out [][]float64) error {
			return runBlock(&cfg, scorer, w, rngs, out)
		},
		BlockSize: tune.BlockSize(cfg.TargetChain, numObserved(&cfg), cfg.Horizon),
		Accumulate: func(run int, series []float64) error {
			return track.Add(series)
		},
	})
	if err != nil {
		return nil, err
	}

	res := &Result{
		PerSlot:       track.Mean(),
		PerSlotStdErr: track.StdErr(),
		Runs:          track.N(),
		TrackStats:    track,
	}
	res.Overall = detect.TimeAverage(res.PerSlot)
	return res, nil
}

// newDetector builds the eavesdropper: the strategy-aware advanced
// detector when CappedGamma or Gamma is set, the basic Eq. 1 detector
// otherwise.
func newDetector(cfg *Config) (detect.BlockScorer, error) {
	if cfg.CappedGamma != nil {
		return detect.NewCappedAdvancedDetector(cfg.TargetChain, cfg.CappedGamma)
	}
	if cfg.Gamma != nil {
		return detect.NewAdvancedDetector(cfg.TargetChain, cfg.Gamma)
	}
	return detect.NewMLDetector(cfg.TargetChain), nil
}

// newWorker builds one worker's scratch, pre-sizing every trajectory
// buffer to the horizon so the hot loop never grows them.
func newWorker(cfg *Config) *muWorker {
	w := &muWorker{
		ws:   detect.GetWorkspace(),
		tbuf: make(markov.Trajectory, cfg.Horizon),
		obuf: make(markov.Trajectory, cfg.Horizon),
	}
	if cfg.Strategy != nil {
		w.chaffBufs = make([]markov.Trajectory, cfg.NumChaffs)
		for i := range w.chaffBufs {
			w.chaffBufs[i] = make(markov.Trajectory, cfg.Horizon)
		}
	}
	w.otherBufs = make([][]markov.Trajectory, len(cfg.OtherStrategies))
	for i, s := range cfg.OtherStrategies {
		if s == nil {
			continue
		}
		w.otherBufs[i] = make([]markov.Trajectory, cfg.OtherNumChaffs[i])
		for j := range w.otherBufs[i] {
			w.otherBufs[i][j] = make(markov.Trajectory, cfg.Horizon)
		}
	}
	return w
}

// numObserved returns U, the trajectories the eavesdropper observes per
// run — the column count of the scoring block.
func numObserved(cfg *Config) int {
	u := 1 + len(cfg.OtherChains)
	for i := range cfg.OtherStrategies {
		if cfg.OtherStrategies[i] != nil {
			u += cfg.OtherNumChaffs[i]
		}
	}
	if cfg.Strategy != nil {
		u += cfg.NumChaffs
	}
	return u
}

// runBlock executes a whole engine dispatch chunk through the batch
// kernels. Each run's stream is drawn in a fixed order: the target is
// the run's first sample (SampleBatch), then the coexisting users, each
// followed by its chaff group, and last the target's chaffs — generated
// into reused buffers and packed into the scoring block in that column
// order.
//
//chaffmec:hotpath
func runBlock(cfg *Config, scorer detect.BlockScorer, w *muWorker, rngs []*rand.Rand, out [][]float64) error {
	B, T := len(rngs), cfg.Horizon
	if cap(w.targets) < B*T {
		w.targets = make([]int32, B*T)
	}
	targets := w.targets[:B*T]
	if err := cfg.TargetChain.SampleBatch(rngs, T, targets); err != nil {
		return err
	}
	blk := w.ws.Block(B, numObserved(cfg), T)
	for r := 0; r < B; r++ {
		for t := 0; t < T; t++ {
			w.tbuf[t] = int(targets[t*B+r])
		}
		blk.SetColumn(r, 0, targets, B, r)
		col := 1
		for i, oc := range cfg.OtherChains {
			if err := oc.SampleInto(rngs[r], w.obuf); err != nil {
				return err
			}
			if err := blk.SetTrajectory(r, col, w.obuf); err != nil {
				return err
			}
			col++
			if i < len(cfg.OtherStrategies) && cfg.OtherStrategies[i] != nil {
				if err := chaff.GenerateInto(cfg.OtherStrategies[i], rngs[r], w.obuf, w.otherBufs[i]); err != nil {
					return fmt.Errorf("multiuser: chaffs for other user %d: %w", i, err)
				}
				for _, ch := range w.otherBufs[i] {
					if err := blk.SetTrajectory(r, col, ch); err != nil {
						return err
					}
					col++
				}
			}
		}
		if cfg.Strategy != nil {
			if err := chaff.GenerateInto(cfg.Strategy, rngs[r], w.tbuf, w.chaffBufs); err != nil {
				return err
			}
			for _, ch := range w.chaffBufs {
				if err := blk.SetTrajectory(r, col, ch); err != nil {
					return err
				}
				col++
			}
		}
	}
	if err := scorer.ScoreBlock(blk, 0); err != nil {
		return err
	}
	//lint:ignore hotpath by design: results must outlive the arena's reuse by the next chunk, so each block pays exactly one backing allocation (alloc-pinned in block_test)
	backing := make([]float64, B*T)
	for r := range out {
		series := backing[r*T : (r+1)*T]
		copy(series, blk.Tracking(r))
		out[r] = series
	}
	return nil
}
