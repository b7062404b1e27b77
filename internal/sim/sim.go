// Package sim is the Monte-Carlo harness behind the paper's synthetic
// evaluation (Section VII): it repeats a chaff-vs-eavesdropper scenario
// over many independently seeded runs in parallel and aggregates
// per-slot tracking (and detection) accuracy, matching the paper's
// protocol of averaging 1000 runs at T=100.
//
// A scenario may place its target among coexisting users, the
// multi-user setting of the remarks in Sections II-A and III: the
// eavesdropper knows the target's chain and scores it against every
// observed trajectory (Eq. 1), so the other users and their chaffs only
// add columns, and the single-user case is the one with no others.
// Trace is the same eavesdropper over the trace-driven study's fixed,
// recorded fleet (Section VII-B).
//
// Execution is delegated to internal/engine: detectors are constructed
// once per scenario, each worker keeps a reusable detect.Workspace and
// sample buffers for the blocks it runs, and per-run results are folded
// into streaming statistics in deterministic run order.
package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"chaffmec/internal/chaff"
	"chaffmec/internal/detect"
	"chaffmec/internal/engine"
	"chaffmec/internal/markov"
	"chaffmec/internal/tune"
)

// Other is a user coexisting with the target.
type Other struct {
	// Chain is the user's mobility model, over the target's cells.
	Chain *markov.Chain
	// Strategy, when non-nil, protects the user with NumChaffs ≥ 1
	// chaffs.
	Strategy  chaff.Strategy
	NumChaffs int
}

// Scenario describes one synthetic experiment.
type Scenario struct {
	// Chain is the target's mobility model (the eavesdropper knows it
	// too).
	Chain *markov.Chain
	// Strategy, when non-nil, protects the target with NumChaffs ≥ 1
	// chaffs; nil leaves it unprotected.
	Strategy  chaff.Strategy
	NumChaffs int
	// Others are the users coexisting with the target. A run draws the
	// target first, then each other user followed by its chaffs, and
	// last the target's chaffs; the eavesdropper observes them in that
	// column order.
	Others []Other
	// Horizon is the trajectory length T.
	Horizon int
	// Advanced upgrades the eavesdropper from the ML detector of
	// Section III (Eq. 1) to the strategy-aware one of Section VI-A.
	Advanced bool
	// Gamma, when non-nil, is the strategy map the advanced
	// eavesdropper assumes the target employs, injected in place of the
	// one it resolves itself. It takes the co-location cap, which lets
	// OO's Γ stop early (see detect.AdvancedDetector). When Gamma is
	// nil, the eavesdropper assumes Strategy's Γ, resolved through
	// chaff.CappedGammaByName (the robust RML, ROO and RMO through their
	// deterministic originals), and a strategy with none (IM, Rollout)
	// leaves the basic detector (Section VI-A.1). A chaff.TrajectoryMapper
	// target observed alone is its own Γ: the eavesdropper takes each
	// run's first chaff to be Γ(user) instead of computing it again, as
	// every mapper in package chaff generates Γ(user), replicated.
	Gamma detect.CappedGammaFunc
	// CollectCt additionally gathers the per-slot log-likelihood gaps
	// c_t (t ≥ 2, Eq. 15) between the target and its first chaff, for
	// the Fig. 6 distribution plots.
	CollectCt bool
}

func (sc *Scenario) validate() error {
	switch {
	case sc.Chain == nil:
		return errors.New("sim: scenario needs a chain")
	case sc.Strategy != nil && sc.NumChaffs < 1:
		return fmt.Errorf("sim: NumChaffs %d must be >= 1", sc.NumChaffs)
	case sc.Horizon < 1:
		return fmt.Errorf("sim: Horizon %d must be >= 1", sc.Horizon)
	case sc.Advanced && sc.Gamma == nil && sc.Strategy == nil:
		return errNothingToRecognize
	case sc.CollectCt && sc.Strategy == nil:
		return errors.New("sim: CollectCt needs the target's chaffs")
	}
	for i, o := range sc.Others {
		switch {
		case o.Chain == nil:
			return fmt.Errorf("sim: other user %d has no chain", i)
		case o.Chain.NumStates() != sc.Chain.NumStates():
			return fmt.Errorf("sim: other user %d has %d cells, want %d", i, o.Chain.NumStates(), sc.Chain.NumStates())
		case o.Strategy != nil && o.NumChaffs < 1:
			return fmt.Errorf("sim: other user %d has a strategy but %d chaffs", i, o.NumChaffs)
		}
	}
	return nil
}

// Result aggregates a scenario's Monte-Carlo runs (possibly one shard
// of them — see engine.Options.Shard).
type Result struct {
	// PerSlot[t] is the mean tracking accuracy at slot t across runs.
	PerSlot []float64
	// PerSlotStdErr[t] is the standard error of PerSlot[t].
	PerSlotStdErr []float64
	// Detection[t] is the mean detection accuracy at slot t.
	Detection []float64
	// Overall is the time-average of PerSlot — the paper's headline
	// tracking-accuracy number.
	Overall float64
	// Runs is the number of Monte-Carlo runs aggregated (the shard's
	// size when the options select one).
	Runs int
	// CtSamples holds the collected c_t values when Scenario.CollectCt,
	// in run order.
	CtSamples []float64
	// TrackStats and DetectionStats are the raw position-aware
	// accumulators behind PerSlot/Detection: the exactly-mergeable
	// partials the Job/Report shard workflow serializes.
	TrackStats, DetectionStats *engine.SeriesStats
}

// newDetector builds the scenario's eavesdropper once, hoisting detector
// construction (and the steady-state solve behind it) out of the per-run
// loop.
func (sc *Scenario) newDetector() (detect.BlockScorer, error) {
	if !sc.Advanced {
		return detect.NewMLDetector(sc.Chain), nil
	}
	if self, ok := sc.Strategy.(chaff.TrajectoryMapper); ok && sc.Gamma == nil && len(sc.Others) == 0 {
		// The strategy is its own Γ, and runBlock puts its first chaff,
		// Γ(user), right after the user. OO shares its plans' Viterbi
		// snapshot with its Γ and proves most Γ(chaff) misses from costs.
		if oo, ok := self.(*chaff.OO); ok {
			return detect.NewSelfGammaDetector(sc.Chain, oo.GammaWithin, oo.ProvesMiss)
		}
		return detect.NewSelfGammaDetector(sc.Chain, func(user markov.Trajectory, _ int) (markov.Trajectory, error) {
			return self.Gamma(user)
		}, nil)
	}
	gamma, err := resolveGamma(sc.Strategy, sc.Chain, sc.Gamma)
	if err != nil {
		return nil, err
	}
	if gamma == nil {
		return detect.NewMLDetector(sc.Chain), nil
	}
	return detect.NewCappedAdvancedDetector(sc.Chain, gamma)
}

var errNothingToRecognize = errors.New("sim: advanced detector needs a strategy or a Gamma to recognize")

// resolveGamma is the Γ the strategy-aware eavesdropper assumes: the
// injected one when set, else the strategy's own (nil, the basic
// detector, for a strategy with no Γ).
func resolveGamma(strategy chaff.Strategy, chain *markov.Chain, injected detect.CappedGammaFunc) (detect.CappedGammaFunc, error) {
	switch {
	case injected != nil:
		return injected, nil
	case strategy == nil:
		return nil, errNothingToRecognize
	}
	return chaff.CappedGammaByName(strategy.Name(), chain)
}

// simWorker is the per-worker scratch: the reusable detection workspace
// and the arena feeds — the SoA user sample block plus the gather, other
// user and chaff buffers SampleInto and GenerateInto fill in place.
// Everything here is reused across every block the worker executes,
// which is what takes the steady-state per-run allocations to ~0.
type simWorker struct {
	ws          *detect.Workspace
	users       []int32               // markov.SampleBatch layout: users[t*B+r]
	userBuf     markov.Trajectory     // run r's user, gathered for chaff generation
	otherBuf    markov.Trajectory     // the current other user's trajectory
	chaffBufs   []markov.Trajectory   // the target's chaffs
	otherChaffs [][]markov.Trajectory // each other user's chaffs
}

// runResult is one run's contribution to the aggregate. The series are
// freshly allocated per run (they outlive the worker's next run while
// waiting for in-order accumulation); all large scratch stays in
// simWorker.
type runResult struct {
	track, det []float64
	ct         []float64
}

// Run executes the scenario on the shared Monte-Carlo engine: the whole
// experiment, or the contiguous global-run slice opts.Shard selects.
// ctx cancels between blocks.
func Run(ctx context.Context, sc Scenario, opts engine.Options) (*Result, error) {
	if err := sc.validate(); err != nil {
		return nil, err
	}
	scorer, err := sc.newDetector()
	if err != nil {
		return nil, err
	}
	o := opts.Normalized()
	start, _ := o.Range()
	T := sc.Horizon

	track := engine.NewSeriesStatsAt(T, start)
	detection := engine.NewSeriesStatsAt(T, start)
	var cts []float64

	// Whole dispatch chunks are sampled and scored through the SoA
	// kernels, tune.BlockSize runs per chunk (chunking never changes
	// results).
	err = engine.Run(ctx, o, engine.Config[*simWorker, runResult]{
		NewWorker: func(int) (*simWorker, error) {
			return sc.newWorker(), nil
		},
		FreeWorker: func(w *simWorker) { w.ws.Release() },
		RunBlock: func(w *simWorker, start int, rngs []*rand.Rand, out []runResult) error {
			return sc.runBlock(w, scorer, rngs, out)
		},
		BlockSize: tune.BlockSize(sc.Chain, sc.observed(), T),
		Accumulate: func(run int, r runResult) error {
			if err := track.Add(r.track); err != nil {
				return err
			}
			if err := detection.Add(r.det); err != nil {
				return err
			}
			cts = append(cts, r.ct...)
			return nil
		},
	})
	if err != nil {
		return nil, err
	}

	res := &Result{
		PerSlot:        track.Mean(),
		PerSlotStdErr:  track.StdErr(),
		Detection:      detection.Mean(),
		Runs:           track.N(),
		CtSamples:      cts,
		TrackStats:     track,
		DetectionStats: detection,
	}
	res.Overall = detect.TimeAverage(res.PerSlot)
	return res, nil
}

// newWorker builds one worker's scratch, pre-sizing every trajectory
// buffer to the horizon so the hot loop never grows them.
func (sc *Scenario) newWorker() *simWorker {
	w := &simWorker{
		ws:          detect.GetWorkspace(),
		userBuf:     make(markov.Trajectory, sc.Horizon),
		otherBuf:    make(markov.Trajectory, sc.Horizon),
		chaffBufs:   chaffBuffers(sc.Strategy, sc.NumChaffs, sc.Horizon),
		otherChaffs: make([][]markov.Trajectory, len(sc.Others)),
	}
	for i, o := range sc.Others {
		w.otherChaffs[i] = chaffBuffers(o.Strategy, o.NumChaffs, sc.Horizon)
	}
	return w
}

// chaffBuffers returns n chaff buffers of length T, none when s is nil.
func chaffBuffers(s chaff.Strategy, n, T int) []markov.Trajectory {
	if s == nil {
		return nil
	}
	bufs := make([]markov.Trajectory, n)
	for i := range bufs {
		bufs[i] = make(markov.Trajectory, T)
	}
	return bufs
}

// observed returns U, the trajectories the eavesdropper observes per
// run: the column count of the scoring block.
func (sc *Scenario) observed() int {
	u := 1 + len(sc.Others)
	for _, o := range sc.Others {
		if o.Strategy != nil {
			u += o.NumChaffs
		}
	}
	if sc.Strategy != nil {
		u += sc.NumChaffs
	}
	return u
}

// runBlock executes a whole engine dispatch chunk through the batch
// kernels: the users of all runs in flight are sampled in one SoA block
// (rngs[r] draws exactly what a per-run Sample would), each run's other
// users and chaffs are drawn in column order into reused worker buffers,
// and the detector scores the whole block in one slot-major sweep.
// Per-slot series are copied out of the arena into one backing
// allocation per block (results must outlive the arena's reuse by the
// next chunk), so steady-state allocations are ~2 per block instead of
// ~8 per run.
//
//chaffmec:hotpath
func (sc *Scenario) runBlock(w *simWorker, scorer detect.BlockScorer, rngs []*rand.Rand, out []runResult) error {
	B, T := len(rngs), sc.Horizon
	if cap(w.users) < B*T {
		w.users = make([]int32, B*T)
	}
	users := w.users[:B*T]
	if err := sc.Chain.SampleBatch(rngs, T, users); err != nil {
		return fmt.Errorf("sim: sampling user: %w", err)
	}
	blk := w.ws.Block(B, sc.observed(), T)
	for r := 0; r < B; r++ {
		for t := 0; t < T; t++ {
			w.userBuf[t] = int(users[t*B+r])
		}
		blk.SetColumn(r, 0, users, B, r)
		col := 1
		for i, o := range sc.Others {
			if err := o.Chain.SampleInto(rngs[r], w.otherBuf); err != nil {
				return fmt.Errorf("sim: sampling other user %d: %w", i, err)
			}
			if err := blk.SetTrajectory(r, col, w.otherBuf); err != nil {
				return err
			}
			var err error
			if col, err = addChaffs(blk, r, col+1, o.Strategy, rngs[r], w.otherBuf, w.otherChaffs[i]); err != nil {
				return err
			}
		}
		if _, err := addChaffs(blk, r, col, sc.Strategy, rngs[r], w.userBuf, w.chaffBufs); err != nil {
			return err
		}
		if sc.CollectCt {
			// c_t needs this run's user and first chaff, both of which the
			// next iteration overwrites — collect before moving on.
			ch := w.chaffBufs[0]
			for t := 1; t < T; t++ {
				v := sc.Chain.LogProb(w.userBuf[t-1], w.userBuf[t]) - sc.Chain.LogProb(ch[t-1], ch[t])
				if !math.IsInf(v, 0) && !math.IsNaN(v) {
					//lint:ignore hotpath by design: c_t samples are only collected on Fig. 7 runs (CollectCt) and must escape the arena; the paper protocol never takes this branch
					out[r].ct = append(out[r].ct, v)
				}
			}
		}
	}
	if err := scorer.ScoreBlock(blk, 0); err != nil {
		return err
	}
	//lint:ignore hotpath by design: results must outlive the arena's reuse by the next chunk, so each block pays exactly one backing allocation (alloc-pinned in block_test)
	backing := make([]float64, 2*B*T)
	for r := range out {
		track := backing[2*r*T : (2*r+1)*T]
		det := backing[(2*r+1)*T : (2*r+2)*T]
		copy(track, blk.Tracking(r))
		copy(det, blk.Detection(r))
		out[r].track, out[r].det = track, det
	}
	return nil
}

// addChaffs generates s's chaffs for owner into bufs and packs them into
// run r's columns from col on, returning the next free column; a nil s
// generates none.
//
//chaffmec:hotpath
func addChaffs(blk *detect.Block, r, col int, s chaff.Strategy, rng *rand.Rand, owner markov.Trajectory, bufs []markov.Trajectory) (int, error) {
	if s == nil {
		return col, nil
	}
	if err := chaff.GenerateInto(s, rng, owner, bufs); err != nil {
		return col, fmt.Errorf("sim: generating chaffs: %w", err)
	}
	for _, ch := range bufs {
		if err := blk.SetTrajectory(r, col, ch); err != nil {
			return col, err
		}
		col++
	}
	return col, nil
}
