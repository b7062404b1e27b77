package figures

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"chaffmec/internal/chaff"
	"chaffmec/internal/detect"
	"chaffmec/internal/engine"
	"chaffmec/internal/markov"
	"chaffmec/internal/rng"
)

// Fig9aResult reproduces Fig. 9(a): per-user tracking accuracy of the
// basic eavesdropper with no chaffs, against the 1/N random-guess
// baseline. A subset of (predictable) users is tracked far above baseline.
type Fig9aResult struct {
	// Nodes and Accuracy are aligned and sorted by descending accuracy.
	Nodes    []string
	Accuracy []float64
	// Baseline is 1/N (N = number of observed trajectories).
	Baseline float64
}

// Fig9a runs the multi-user no-chaff evaluation.
func Fig9a(lab *TraceLab) (*Fig9aResult, error) {
	accs, err := lab.UserAccuracies(nil)
	if err != nil {
		return nil, err
	}
	idx := make([]int, len(accs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return accs[idx[a]] > accs[idx[b]] })
	res := &Fig9aResult{Baseline: 1 / float64(len(lab.Trajectories))}
	for _, u := range idx {
		res.Nodes = append(res.Nodes, lab.Nodes[u])
		res.Accuracy = append(res.Accuracy, accs[u])
	}
	return res, nil
}

// TraceBarResult is the Fig. 9(b)/Fig. 10 data shape: tracking accuracy of
// the top-K users under each strategy.
type TraceBarResult struct {
	// Users holds the node ids of the top-K most-tracked users.
	Users []string
	// UserIdx are their indices into the lab's trajectory list.
	UserIdx []int
	// Strategies names the columns of Acc.
	Strategies []string
	// Acc[u][s] is user u's tracking accuracy under strategy s, averaged
	// over its chaff streams; StdErr[u][s] is the standard error of that
	// average (the figure's error bar) and CellRuns[u][s] the repetition
	// count the cell actually executed — uniform in fixed mode, per-cell
	// under an adaptive GridOptions.TargetSE. Deterministic cells (the
	// "no chaff" column) carry StdErr 0 and CellRuns 0.
	Acc      [][]float64
	StdErr   [][]float64
	CellRuns [][]int
	// Runs echoes the per-cell base repetition count (GridOptions.Runs).
	Runs int
}

// GridOptions tunes the per-cell Monte-Carlo evaluation of the
// trace-driven bar figures.
type GridOptions struct {
	// Runs is the number of decorrelated chaff streams averaged per grid
	// cell (default 1, the historical single-stream evaluation); with a
	// TargetSE it is the per-cell minimum.
	Runs int
	// TargetSE, when positive, makes the per-cell repetition count
	// adaptive: extension rounds add streams to the cells whose accuracy
	// standard error still exceeds the goal, until every cell meets it or
	// reaches MaxRuns — precision-driven error bars instead of a uniform
	// (over- and under-sampled) grid.
	TargetSE float64
	// MaxRuns caps the adaptive per-cell repetitions (default 64×Runs).
	MaxRuns int
}

// gridCell is one (user rank, strategy column) evaluation of a
// trace-driven bar figure, dispatched as one engine run.
type gridCell struct{ rank, si int }

// runGrid evaluates a (top-K user × strategy) accuracy grid on the
// shared Monte-Carlo engine. The base sweep repeats every cell
// opts.Runs times over decorrelated chaff streams: engine run index r
// maps to repetition r/C of cell r%C (C cells), so each (cell,
// repetition) pair draws the private stream rng.Derive(seed, r). With
// Runs = 1 (the default everywhere) this reproduces the historical
// one-stream-per-cell evaluation exactly. Per-cell position-aware
// accumulators collect mean and standard error; with a TargetSE,
// adaptive extension rounds then keep adding repetitions — only for the
// cells still above the goal, each round drawing from the fresh stream
// family rng.Derive(seed, round, ·) — until every cell's SE meets the
// target or MaxRuns. Cells execute on the worker pool and results are
// accumulated in run order, and the round schedule is a pure function of
// the accumulated statistics: the output is deterministic for any worker
// count.
func runGrid(res *TraceBarResult, cells []gridCell, seed int64, opts GridOptions,
	eval func(c gridCell, rng *rand.Rand) (float64, error)) error {
	runs := opts.Runs
	if runs < 1 {
		runs = 1
	}
	res.Runs = runs
	if len(cells) == 0 {
		return nil // engine.Options would normalize Runs 0 to 1000
	}
	stats := make([]engine.ScalarStats, len(cells))
	// sweep adds reps repetitions to every cell in active (indices into
	// cells/stats), drawing run streams from sweepSeed.
	sweep := func(active []int, sweepSeed int64, reps int) error {
		return engine.Run(context.Background(), engine.Options{Runs: len(active) * reps, Seed: sweepSeed},
			engine.Config[struct{}, float64]{
				RunBlock: func(_ struct{}, start int, rngs []*rand.Rand, out []float64) error {
					for i, rng := range rngs {
						acc, err := eval(cells[active[(start+i)%len(active)]], rng)
						if err != nil {
							return err
						}
						out[i] = acc
					}
					return nil
				},
				Accumulate: func(i int, acc float64) error {
					stats[active[i%len(active)]].Add(acc)
					return nil
				},
			})
	}
	all := make([]int, len(cells))
	for i := range all {
		all[i] = i
	}
	if err := sweep(all, seed, runs); err != nil {
		return err
	}
	if opts.TargetSE > 0 {
		t := engine.Target{SE: opts.TargetSE, MinRuns: runs, MaxRuns: opts.MaxRuns}.Normalized(64 * runs)
		if t.MinRuns < runs {
			t.MinRuns = runs // Normalized floors at 2; the base sweep is the floor here
		}
		for round := int64(1); ; round++ {
			var active []int
			reps := 0
			for ci := range cells {
				n, se := stats[ci].N(), stats[ci].StdErr()
				if t.Done(n, se) {
					continue
				}
				active = append(active, ci)
				if r := t.NextEnd(n, se) - n; r > reps {
					reps = r
				}
			}
			if len(active) == 0 {
				break
			}
			// A fresh per-round stream family: reusing the base family
			// would hand different (cell, repetition) pairs identical
			// streams once the active set shrinks.
			if err := sweep(active, rng.Derive(seed, round), reps); err != nil {
				return err
			}
		}
	}
	for ci, c := range cells {
		res.Acc[c.rank][c.si] = stats[ci].Mean()
		res.StdErr[c.rank][c.si] = stats[ci].StdErr()
		res.CellRuns[c.rank][c.si] = stats[ci].N()
	}
	return nil
}

// newTraceBarResult sizes the result grids for topK users × the given
// strategy columns.
func newTraceBarResult(topK int, labels []string) *TraceBarResult {
	res := &TraceBarResult{
		Strategies: labels,
		Acc:        make([][]float64, topK),
		StdErr:     make([][]float64, topK),
		CellRuns:   make([][]int, topK),
	}
	for u := range res.Acc {
		res.Acc[u] = make([]float64, len(labels))
		res.StdErr[u] = make([]float64, len(labels))
		res.CellRuns[u] = make([]int, len(labels))
	}
	return res
}

// Fig9b reproduces Fig. 9(b): the top-K users' tracking accuracy before
// and after adding a single chaff controlled by IM, MO, ML, or OO. The
// eavesdropper is the basic ML detector over all trajectories plus the
// chaff. The (user × strategy) grid is evaluated in parallel on the
// engine worker pool, each chaffed cell averaging over opts.Runs
// (default one) engine-derived chaff streams — adaptively extended per
// cell under opts.TargetSE — with error bars in StdErr; the output is
// deterministic for any worker count.
func Fig9b(lab *TraceLab, topK int, seed int64, opts GridOptions) (*TraceBarResult, error) {
	top, accs, err := lab.TopUsers(topK)
	if err != nil {
		return nil, err
	}
	strategies := []struct {
		label string
		build func() chaff.Strategy
	}{
		{"no chaff", nil},
		{"IM", func() chaff.Strategy { return chaff.NewIM(lab.Chain) }},
		{"MO", func() chaff.Strategy { return chaff.NewMO(lab.Chain) }},
		{"ML", func() chaff.Strategy { return chaff.NewML(lab.Chain) }},
		{"OO", func() chaff.Strategy { return chaff.NewOO(lab.Chain) }},
	}
	labels := make([]string, len(strategies))
	for i, s := range strategies {
		labels[i] = s.label
	}
	res := newTraceBarResult(len(top), labels)
	var cells []gridCell
	for rank, u := range top {
		res.Users = append(res.Users, lab.Nodes[u])
		res.UserIdx = append(res.UserIdx, u)
		for si, s := range strategies {
			if s.build == nil {
				res.Acc[rank][si] = accs[u] // no-chaff column: already computed
				continue
			}
			cells = append(cells, gridCell{rank, si})
		}
	}
	err = runGrid(res, cells, seed, opts, func(c gridCell, rng *rand.Rand) (float64, error) {
		s := strategies[c.si]
		acc, err := lab.userAccuracyWithChaffs(top[c.rank], s.build(), 1, rng, nil)
		if err != nil {
			return 0, fmt.Errorf("figures: fig9b user %s strategy %s: %w", lab.Nodes[top[c.rank]], s.label, err)
		}
		return acc, nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// userAccuracyWithChaffs computes user u's time-average tracking accuracy
// after adding numChaffs chaff trajectories generated for u. A nil gamma
// uses the basic ML detector; otherwise the advanced strategy-aware
// detector of Section VI-A filters with Γ before detecting.
func (lab *TraceLab) userAccuracyWithChaffs(u int, strategy chaff.Strategy, numChaffs int, rng *rand.Rand, gamma detect.CappedGammaFunc) (float64, error) {
	chaffs, err := strategy.GenerateChaffs(rng, lab.Trajectories[u], numChaffs)
	if err != nil {
		return 0, err
	}
	trs := append(append([]markov.Trajectory{}, lab.Trajectories...), chaffs...)
	var dets [][]int
	if gamma == nil {
		dets, err = detect.NewMLDetector(lab.Chain).PrefixDetections(trs)
	} else {
		var adv *detect.AdvancedDetector
		adv, err = detect.NewCappedAdvancedDetector(lab.Chain, gamma)
		if err == nil {
			dets, err = adv.PrefixDetections(trs)
		}
	}
	if err != nil {
		return 0, err
	}
	series, err := detect.TrackingAccuracySeries(dets, trs, u)
	if err != nil {
		return 0, err
	}
	return detect.TimeAverage(series), nil
}
