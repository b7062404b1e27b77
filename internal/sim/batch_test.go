package sim

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"chaffmec/internal/chaff"
	"chaffmec/internal/detect"
	"chaffmec/internal/engine"
	"chaffmec/internal/markov"
	"chaffmec/internal/mobility"
	"chaffmec/internal/rng"
)

// runScalar executes the scenario one run at a time through runOnce,
// drawing run r's stream from rng.NewRun(seed, r) with no engine in
// between — the reference the batch path must reproduce bit for bit.
func runScalar(t *testing.T, sc Scenario, opts engine.Options) *Result {
	t.Helper()
	det, err := sc.newDetector()
	if err != nil {
		t.Fatal(err)
	}
	o := opts.Normalized()
	start, end := o.Range()
	track := engine.NewSeriesStatsAt(sc.Horizon, start)
	detection := engine.NewSeriesStatsAt(sc.Horizon, start)
	var cts []float64
	w := sc.newWorker()
	defer w.ws.Release()
	for run := start; run < end; run++ {
		r, err := sc.runOnce(w, det, rng.NewRun(o.Seed, run))
		if err != nil {
			t.Fatal(err)
		}
		if err := track.Add(r.track); err != nil {
			t.Fatal(err)
		}
		if err := detection.Add(r.det); err != nil {
			t.Fatal(err)
		}
		cts = append(cts, r.ct...)
	}
	return &Result{
		PerSlot:   track.Mean(),
		Detection: detection.Mean(),
		Runs:      track.N(),
		CtSamples: cts,
	}
}

// runOnce is the scalar per-run pipeline — per-run Sample, GenerateChaffs
// and prefix detection — kept as the reference the batch path is tested
// against. It executes a single Monte-Carlo run on the worker's scratch
// state, drawing the target, then each other user followed by its
// chaffs, then the target's chaffs.
// The rng is the run's private stream (rng.Derive(seed, run) — see
// internal/rng), so the result depends only on (seed, run index).
func (sc *Scenario) runOnce(w *simWorker, det detect.PrefixDetector, rng *rand.Rand) (runResult, error) {
	user, err := sc.Chain.Sample(rng, sc.Horizon)
	if err != nil {
		return runResult{}, fmt.Errorf("sim: sampling user: %w", err)
	}
	trs := []markov.Trajectory{user}
	for _, o := range sc.Others {
		tr, err := o.Chain.Sample(rng, sc.Horizon)
		if err != nil {
			return runResult{}, err
		}
		trs = append(trs, tr)
		if o.Strategy != nil {
			chaffs, err := o.Strategy.GenerateChaffs(rng, tr, o.NumChaffs)
			if err != nil {
				return runResult{}, err
			}
			trs = append(trs, chaffs...)
		}
	}
	var chaffs []markov.Trajectory
	if sc.Strategy != nil {
		if chaffs, err = sc.Strategy.GenerateChaffs(rng, user, sc.NumChaffs); err != nil {
			return runResult{}, fmt.Errorf("sim: generating chaffs: %w", err)
		}
		trs = append(trs, chaffs...)
	}

	dets, err := det.PrefixDetectionsWith(w.ws, trs)
	if err != nil {
		return runResult{}, err
	}
	var out runResult
	out.track, err = detect.TrackingAccuracySeries(dets, trs, 0)
	if err != nil {
		return runResult{}, err
	}
	out.det, err = detect.DetectionAccuracySeries(dets, len(trs), 0)
	if err != nil {
		return runResult{}, err
	}
	if sc.CollectCt {
		ch := chaffs[0]
		for t := 1; t < sc.Horizon; t++ {
			v := sc.Chain.LogProb(user[t-1], user[t]) - sc.Chain.LogProb(ch[t-1], ch[t])
			if !math.IsInf(v, 0) && !math.IsNaN(v) {
				out.ct = append(out.ct, v)
			}
		}
	}
	return out, nil
}

// TestBatchMatchesScalar is the harness-level differential test: Run
// (batch dispatch through SampleBatch + ScoreBlock) must reproduce the
// scalar runOnce pipeline bit for bit — same seeds, same streams, same
// accumulation — across strategies, detectors, the c_t collector and
// the population shapes (the "others" group): bare coexisting users, a
// protected target and heterogeneous protection.
func TestBatchMatchesScalar(t *testing.T) {
	c := modelChain(t, mobility.ModelSpatiallySkewed)
	other := seededChain(t, mobility.ModelNonSkewed, 2)
	mo := chaff.NewMO(c)
	cases := []struct {
		name string
		sc   Scenario
	}{
		{"IM-basic", Scenario{Chain: c, Strategy: chaff.NewIM(c), NumChaffs: 3, Horizon: 25}},
		{"MO-basic-ct", Scenario{Chain: c, Strategy: mo, NumChaffs: 1, Horizon: 25, CollectCt: true}},
		{"ML-basic", Scenario{Chain: c, Strategy: chaff.NewML(c), NumChaffs: 2, Horizon: 25}},
		{"MO-advanced", Scenario{Chain: c, Strategy: mo, NumChaffs: 1, Horizon: 25,
			Advanced: true, Gamma: uncapped(mo.Gamma)}},
		{"OO-fallback", Scenario{Chain: c, Strategy: chaff.NewOO(c), NumChaffs: 1, Horizon: 15}},
	}
	others := []struct {
		name string
		sc   Scenario
	}{
		{"bare-others", Scenario{Chain: c, Others: crowd(other, 2), Horizon: 20}},
		{"protected-target", Scenario{Chain: c, Others: crowd(other, 1),
			Strategy: chaff.NewIM(c), NumChaffs: 2, Horizon: 20}},
		{"hetero", Scenario{Chain: c, Strategy: mo, NumChaffs: 1, Horizon: 20, CollectCt: true,
			Others: []Other{{Chain: other, Strategy: chaff.NewIM(other), NumChaffs: 2}, {Chain: c}}}},
		{"advanced", Scenario{Chain: c, Others: crowd(other, 1),
			Strategy: mo, NumChaffs: 1, Horizon: 20, Advanced: true, Gamma: uncapped(mo.Gamma)}},
	}
	check := func(t *testing.T, sc Scenario) {
		opts := engine.Options{Runs: 60, Seed: 17, Workers: 4}
		want := runScalar(t, sc, opts)
		got, err := Run(context.Background(), sc, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got.Runs != want.Runs {
			t.Fatalf("runs: batch %d, scalar %d", got.Runs, want.Runs)
		}
		for i := range want.PerSlot {
			if got.PerSlot[i] != want.PerSlot[i] {
				t.Fatalf("slot %d tracking: batch %v, scalar %v", i, got.PerSlot[i], want.PerSlot[i])
			}
			if got.Detection[i] != want.Detection[i] {
				t.Fatalf("slot %d detection: batch %v, scalar %v", i, got.Detection[i], want.Detection[i])
			}
		}
		if len(got.CtSamples) != len(want.CtSamples) {
			t.Fatalf("ct samples: batch %d, scalar %d", len(got.CtSamples), len(want.CtSamples))
		}
		for i := range want.CtSamples {
			if got.CtSamples[i] != want.CtSamples[i] {
				t.Fatalf("ct sample %d: batch %v, scalar %v", i, got.CtSamples[i], want.CtSamples[i])
			}
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { check(t, tc.sc) })
	}
	t.Run("others", func(t *testing.T) {
		for _, tc := range others {
			t.Run(tc.name, func(t *testing.T) { check(t, tc.sc) })
		}
	})
}

// TestRunBlockAllocs pins the warm batch hot path: one engine chunk of B
// runs costs O(1) allocations (the per-block result backing), not O(B).
func TestRunBlockAllocs(t *testing.T) {
	c := modelChain(t, mobility.ModelNonSkewed)
	sc := Scenario{Chain: c, Strategy: chaff.NewML(c), NumChaffs: 2, Horizon: 50}
	scorer, err := sc.newDetector()
	if err != nil {
		t.Fatal(err)
	}
	const B = 64
	w := sc.newWorker()
	rngs := make([]*rand.Rand, B)
	srcs := make([]rng.Source, B)
	for i := range rngs {
		rngs[i] = rand.New(&srcs[i])
	}
	out := make([]runResult, B)
	reseed := func() {
		for i := range srcs {
			srcs[i].Reseed(5, i)
		}
	}
	reseed()
	if err := sc.runBlock(w, scorer, rngs, out); err != nil { // warm all caches
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		reseed()
		if err := sc.runBlock(w, scorer, rngs, out); err != nil {
			t.Fatal(err)
		}
	})
	// One backing allocation for the per-run series (plus its slice
	// header bookkeeping at most): amortized per run this is ~0.
	if allocs > 3 {
		t.Fatalf("warm runBlock allocates %v per %d-run block, want <= 3", allocs, B)
	}
	if perRun := allocs / B; perRun > 0.1 {
		t.Fatalf("warm batch path allocates %v per run, want ~0", perRun)
	}
}
