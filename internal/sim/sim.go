// Package sim is the Monte-Carlo harness behind the paper's evaluation
// (Section VII): it repeats a chaff-vs-eavesdropper scenario over many
// independently seeded runs in parallel and aggregates per-slot tracking
// (and detection) accuracy, matching the paper's protocol of averaging
// 1000 runs at T=100.
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

// DetectorKind selects the eavesdropper model of a scenario.
type DetectorKind int

const (
	// BasicDetector is the ML detector of Section III (Eq. 1).
	BasicDetector DetectorKind = iota
	// AdvancedDetector is the strategy-aware eavesdropper of Section VI-A;
	// Scenario.Gamma or Scenario.CappedGamma must be set.
	AdvancedDetector
)

// Scenario describes one synthetic experiment.
type Scenario struct {
	// Chain is the user's mobility model (the eavesdropper knows it too).
	Chain *markov.Chain
	// Strategy controls the chaffs.
	Strategy chaff.Strategy
	// NumChaffs is N−1 ≥ 1.
	NumChaffs int
	// Horizon is the trajectory length T.
	Horizon int
	// Detector selects the eavesdropper; AdvancedDetector requires Gamma
	// or CappedGamma.
	Detector DetectorKind
	// Gamma is the strategy map the advanced eavesdropper assumes the
	// user employs (normally the deterministic variant of Strategy).
	Gamma detect.GammaFunc
	// CappedGamma, when set, replaces Gamma: the same map taking the
	// co-location cap, which lets OO's Γ stop early (see
	// detect.AdvancedDetector). Results are the same bits.
	CappedGamma detect.CappedGammaFunc
	// CollectCt additionally gathers the per-slot log-likelihood gaps
	// c_t (t ≥ 2, Eq. 15) between the user and the first chaff, for the
	// Fig. 6 distribution plots.
	CollectCt bool
}

func (sc *Scenario) validate() error {
	switch {
	case sc.Chain == nil:
		return errors.New("sim: scenario needs a chain")
	case sc.Strategy == nil:
		return errors.New("sim: scenario needs a strategy")
	case sc.NumChaffs < 1:
		return fmt.Errorf("sim: NumChaffs %d must be >= 1", sc.NumChaffs)
	case sc.Horizon < 1:
		return fmt.Errorf("sim: Horizon %d must be >= 1", sc.Horizon)
	case sc.Detector == AdvancedDetector && sc.Gamma == nil && sc.CappedGamma == nil:
		return errors.New("sim: advanced detector requires Gamma")
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
	switch sc.Detector {
	case BasicDetector:
		return detect.NewMLDetector(sc.Chain), nil
	case AdvancedDetector:
		if sc.CappedGamma != nil {
			return detect.NewCappedAdvancedDetector(sc.Chain, sc.CappedGamma)
		}
		return detect.NewAdvancedDetector(sc.Chain, sc.Gamma)
	default:
		return nil, fmt.Errorf("sim: unknown detector kind %d", sc.Detector)
	}
}

// simWorker is the per-worker scratch: the reusable detection workspace
// and the arena feeds — the SoA user sample block plus the gather/chaff
// buffers GenerateInto fills in place. Everything here is reused across
// every block the worker executes, which is what takes the steady-state
// per-run allocations to ~0.
type simWorker struct {
	ws        *detect.Workspace
	users     []int32             // markov.SampleBatch layout: users[t*B+r]
	userBuf   markov.Trajectory   // run r's user, gathered for chaff generation
	chaffBufs []markov.Trajectory // reused chaff buffers, one per chaff
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
		BlockSize: tune.BlockSize(sc.Chain, 1+sc.NumChaffs, T),
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

// newWorker builds one worker's scratch, pre-sizing the gather and chaff
// buffers to the horizon so the hot loop never grows them.
func (sc *Scenario) newWorker() *simWorker {
	w := &simWorker{
		ws:        detect.GetWorkspace(),
		userBuf:   make(markov.Trajectory, sc.Horizon),
		chaffBufs: make([]markov.Trajectory, sc.NumChaffs),
	}
	for i := range w.chaffBufs {
		w.chaffBufs[i] = make(markov.Trajectory, sc.Horizon)
	}
	return w
}

// runBlock executes a whole engine dispatch chunk through the batch
// kernels: the users of all runs in flight are sampled in one SoA block
// (rngs[r] draws exactly what a per-run Sample would), chaffs are
// generated into reused worker buffers, and the detector scores the
// whole block in one slot-major sweep. Per-slot series are copied out of
// the arena into one backing allocation per block (results must outlive
// the arena's reuse by the next chunk), so steady-state allocations are
// ~2 per block instead of ~8 per run.
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
	blk := w.ws.Block(B, 1+sc.NumChaffs, T)
	for r := 0; r < B; r++ {
		for t := 0; t < T; t++ {
			w.userBuf[t] = int(users[t*B+r])
		}
		if err := chaff.GenerateInto(sc.Strategy, rngs[r], w.userBuf, w.chaffBufs); err != nil {
			return fmt.Errorf("sim: generating chaffs: %w", err)
		}
		blk.SetColumn(r, 0, users, B, r)
		for i, ch := range w.chaffBufs {
			if err := blk.SetTrajectory(r, 1+i, ch); err != nil {
				return err
			}
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
