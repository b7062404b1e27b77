package sim

import (
	"fmt"
	"math/rand"

	"chaffmec/internal/chaff"
	"chaffmec/internal/detect"
	"chaffmec/internal/markov"
)

// Trace is the eavesdropper of the trace-driven study (Section VII-B):
// every run observes the same recorded fleet, plus the chaffs protecting
// one fleet member, and only the chaffs change between runs. It is the
// one trace scorer: the trace scenario kind and the trace figures
// (Figs. 9 and 10) both run it.
//
// A Trace is immutable after construction and safe for concurrent use;
// each engine worker brings its own TraceWorker.
type Trace struct {
	fleet     *detect.Fleet
	trs       []markov.Trajectory
	strategy  chaff.Strategy
	numChaffs int
	// scorer is the strategy-aware eavesdropper, nil for the basic one.
	scorer *detect.AdvancedDetector
}

// NewTrace watches the fleet trs, whose score table under chain is
// fleet, plus numChaffs chaffs of strategy (none when strategy is nil).
// With advanced, the eavesdropper is the strategy-aware one of Section
// VI-A assuming gamma, or the strategy's own Γ when gamma is nil; a
// strategy with no Γ leaves the basic eavesdropper (Section VI-A.1).
func NewTrace(chain *markov.Chain, fleet *detect.Fleet, trs []markov.Trajectory, strategy chaff.Strategy, numChaffs int,
	advanced bool, gamma detect.CappedGammaFunc) (*Trace, error) {
	tr := &Trace{fleet: fleet, trs: trs, strategy: strategy}
	if strategy != nil {
		tr.numChaffs = numChaffs
	}
	if !advanced {
		return tr, nil
	}
	gamma, err := resolveGamma(strategy, chain, gamma)
	if err != nil {
		return nil, err
	}
	if gamma != nil {
		if tr.scorer, err = detect.NewCappedAdvancedDetector(chain, gamma); err != nil {
			return nil, err
		}
	}
	return tr, nil
}

// TraceWorker is one engine worker's scratch for a Trace: the chaff
// buffers every run regenerates in place, the chaffs' running
// log-likelihoods for the fleet table, and (strategy-aware eavesdropper
// only) the reusable block-scoring workspace.
type TraceWorker struct {
	chaffBufs []markov.Trajectory
	ll        []float64
	ws        *detect.Workspace
}

// NewWorker returns a worker's scratch for tr's runs.
func (tr *Trace) NewWorker() *TraceWorker {
	w := &TraceWorker{
		chaffBufs: chaffBuffers(tr.strategy, tr.numChaffs, len(tr.trs[0])),
		ll:        make([]float64, tr.numChaffs),
	}
	if tr.scorer != nil {
		w.ws = detect.GetWorkspace()
	}
	return w
}

// Release returns the worker's workspace to the pool.
func (w *TraceWorker) Release() {
	if w.ws != nil {
		w.ws.Release()
	}
}

// RunBlock writes to out[r] fleet member user's per-slot tracking
// accuracy under run r's chaff stream, which rngs[r] draws; a strategy
// that draws nothing takes a nil stream. The series share one backing
// allocation per block.
//
//chaffmec:hotpath
func (tr *Trace) RunBlock(w *TraceWorker, user int, rngs []*rand.Rand, out [][]float64) error {
	if tr.scorer != nil {
		return tr.runAdvanced(w, user, rngs, out)
	}
	return tr.runFleet(w, user, rngs, out)
}

// runFleet is the basic-ML kernel: it generates each run's chaffs into
// the worker's buffers and scores only those against the fleet table,
// writing the tracking series straight into the block's backing.
//
//chaffmec:hotpath
func (tr *Trace) runFleet(w *TraceWorker, user int, rngs []*rand.Rand, out [][]float64) error {
	userTr := tr.trs[user]
	T := len(userTr)
	//lint:ignore hotpath by design: results must outlive the worker's buffers, so each block pays exactly one backing allocation
	backing := make([]float64, len(rngs)*T)
	for r := range rngs {
		if tr.strategy != nil {
			if err := chaff.GenerateInto(tr.strategy, rngs[r], userTr, w.chaffBufs); err != nil {
				return fmt.Errorf("sim: trace chaffs: %w", err)
			}
		}
		series := backing[r*T : (r+1)*T]
		if err := tr.fleet.Track(user, w.chaffBufs, w.ll, series); err != nil {
			return err
		}
		out[r] = series
	}
	return nil
}

// runAdvanced is the strategy-aware kernel: the survivor mask depends
// on each run's chaffs, so it packs the fleet plus each run's chaffs
// into the worker's scoring block, sweeps the whole block once through
// the scorer, and copies the tracking series out of the arena.
//
//chaffmec:hotpath
func (tr *Trace) runAdvanced(w *TraceWorker, user int, rngs []*rand.Rand, out [][]float64) error {
	B, T := len(rngs), len(tr.trs[user])
	blk := w.ws.Block(B, len(tr.trs)+len(w.chaffBufs), T)
	for r := range rngs {
		for u, x := range tr.trs {
			if err := blk.SetTrajectory(r, u, x); err != nil {
				return err
			}
		}
		if err := chaff.GenerateInto(tr.strategy, rngs[r], tr.trs[user], w.chaffBufs); err != nil {
			return fmt.Errorf("sim: trace chaffs: %w", err)
		}
		for i, ch := range w.chaffBufs {
			if err := blk.SetTrajectory(r, len(tr.trs)+i, ch); err != nil {
				return err
			}
		}
	}
	if err := tr.scorer.ScoreBlock(blk, user); err != nil {
		return err
	}
	//lint:ignore hotpath by design: results must outlive the arena's reuse by the next chunk, so each block pays exactly one backing allocation
	backing := make([]float64, B*T)
	for r := range out {
		series := backing[r*T : (r+1)*T]
		copy(series, blk.Tracking(r))
		out[r] = series
	}
	return nil
}
