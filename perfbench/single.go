package main

import (
	"context"
	"runtime"

	"chaffmec"
	"chaffmec/internal/detect"
	"chaffmec/internal/tune"
)

// singleModelSeed fixes the spatially-skewed chain of the single-user
// workloads: the benchmark seed moves the Monte-Carlo draws, not the
// model.
const singleModelSeed = 2017

// singleWorkload is paper-mo or advanced-oo: kind "single" run through
// RunJob in this process, the same Job in every campaign.
type singleWorkload struct {
	job chaffmec.Job
	// replayRuns is how many leading runs of the campaign the traced
	// replay re-runs.
	replayRuns int
	// The traced replay's own chain, strategy and detector.
	chain  *chaffmec.Chain
	strat  chaffmec.Strategy
	scorer detect.BlockScorer
	gamma  *gammaTimer
	block  int
	// ref is the first campaign's report, which every later one must
	// equal bit for bit.
	ref *chaffmec.Report
}

// newSingle builds the workload with the replay's own chain, strategy
// and detector. RunJob builds its own in every campaign, so none of this
// is set-up the campaigns share.
func newSingle(strategy string, advanced bool, runs, replayRuns int, seed int64) (*singleWorkload, error) {
	w := &singleWorkload{replayRuns: replayRuns, job: chaffmec.Job{Spec: chaffmec.ScenarioSpec{
		Kind:      "single",
		Model:     "spatially-skewed",
		Cells:     10,
		ModelSeed: singleModelSeed,
		Strategy:  strategy,
		NumChaffs: 1,
		Advanced:  advanced,
		Horizon:   100,
		Runs:      runs,
		Seed:      seed,
	}}}
	sp := w.job.Spec
	chain, err := chaffmec.BuildModel(chaffmec.ModelSpatiallySkewed, sp.Cells, sp.ModelSeed)
	if err != nil {
		return nil, err
	}
	strat, err := chaffmec.NewStrategy(sp.Strategy, chain)
	if err != nil {
		return nil, err
	}
	var scorer detect.BlockScorer = detect.NewMLDetector(chain)
	if sp.Advanced {
		g, err := chaffmec.Gamma(sp.Strategy, chain)
		if err != nil {
			return nil, err
		}
		w.gamma = &gammaTimer{g: g}
		if scorer, err = detect.NewAdvancedDetector(chain, w.gamma.call); err != nil {
			return nil, err
		}
	}
	w.chain, w.strat, w.scorer = chain, strat, scorer
	return w, nil
}

func (w *singleWorkload) runsPerCampaign() int { return w.job.Spec.Runs }
func (w *singleWorkload) tuneBlock() int       { return w.block }

// setup pays, from cold, the one thing a campaign keeps for the next:
// the block calibration for this kernel shape.
func (w *singleWorkload) setup() error {
	sp := w.job.Spec
	tune.ResetForTest()
	w.block = tune.BlockSize(w.chain, 1+sp.NumChaffs, sp.Horizon)
	return nil
}

func (w *singleWorkload) campaign(ctx context.Context, _ int) (*chaffmec.Report, error) {
	rep, err := chaffmec.RunJob(ctx, w.job)
	if err == nil && w.ref == nil {
		w.ref = rep
	}
	return rep, err
}

// check compares a report with the first campaign's.
func (w *singleWorkload) check(_ context.Context, _ int, rep *chaffmec.Report) (bool, error) {
	want, err := canonical(w.ref)
	if err != nil {
		return false, err
	}
	got, err := canonical(rep)
	return err == nil && string(got) == string(want), nil
}

// traced times the calibration, then replays the campaign's first
// replayRuns runs block by block, untraced and traced, against the
// report of RunJob on that shard.
func (w *singleWorkload) traced(ctx context.Context, m metrics, checks *tally) ([]span, error) {
	sp := w.job.Spec
	w.block = timeCalibration(m, w.chain, 1+sp.NumChaffs, sp.Horizon)
	end := min(w.replayRuns, sp.Runs)
	ref, err := chaffmec.RunJob(ctx, chaffmec.Job{Spec: sp, Shard: chaffmec.Shard{Start: 0, End: end}})
	if err != nil {
		return nil, err
	}
	rp := &replay{
		chain:     w.chain,
		strat:     w.strat,
		scorer:    w.scorer,
		gamma:     w.gamma,
		numChaffs: sp.NumChaffs,
		horizon:   sp.Horizon,
		seed:      sp.Seed,
		// The campaign's own chunks, cut at end: every width divides 256.
		blocks:    blockRanges(0, end, engineWidth(sp.Runs, runtime.GOMAXPROCS(0), w.block)),
		detection: true,
	}
	spans, err := traceReplay(rp, ref, replayPasses, m, checks)
	for _, name := range fleetOnly {
		m.set(name, 0)
	}
	return spans, err
}

func (w *singleWorkload) close() {}
