package multiuser

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"chaffmec/internal/chaff"
	"chaffmec/internal/detect"
	"chaffmec/internal/engine"
	"chaffmec/internal/markov"
	"chaffmec/internal/mobility"
	"chaffmec/internal/rng"
)

// runScalar executes the config one run at a time through runOnce,
// drawing run r's stream from rng.NewRun(seed, r) with no engine in
// between — the reference the batch path must reproduce bit for bit.
func runScalar(t *testing.T, cfg Config, opts engine.Options) *Result {
	t.Helper()
	det, err := newDetector(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	o := opts.Normalized()
	start, end := o.Range()
	track := engine.NewSeriesStatsAt(cfg.Horizon, start)
	w := newWorker(&cfg)
	defer w.ws.Release()
	for run := start; run < end; run++ {
		series, err := runOnce(&cfg, det, w, rng.NewRun(o.Seed, run))
		if err != nil {
			t.Fatal(err)
		}
		if err := track.Add(series); err != nil {
			t.Fatal(err)
		}
	}
	return &Result{PerSlot: track.Mean(), Runs: track.N()}
}

// runOnce is the scalar per-run pipeline — per-run Sample, GenerateChaffs
// and prefix detection — kept as the reference the batch path is tested
// against.
func runOnce(cfg *Config, det detect.PrefixDetector, w *muWorker, rng *rand.Rand) ([]float64, error) {
	target, err := cfg.TargetChain.Sample(rng, cfg.Horizon)
	if err != nil {
		return nil, err
	}
	trs := []markov.Trajectory{target}
	for i, oc := range cfg.OtherChains {
		tr, err := oc.Sample(rng, cfg.Horizon)
		if err != nil {
			return nil, err
		}
		trs = append(trs, tr)
		if i < len(cfg.OtherStrategies) && cfg.OtherStrategies[i] != nil {
			chaffs, err := cfg.OtherStrategies[i].GenerateChaffs(rng, tr, cfg.OtherNumChaffs[i])
			if err != nil {
				return nil, fmt.Errorf("multiuser: chaffs for other user %d: %w", i, err)
			}
			trs = append(trs, chaffs...)
		}
	}
	if cfg.Strategy != nil {
		chaffs, err := cfg.Strategy.GenerateChaffs(rng, target, cfg.NumChaffs)
		if err != nil {
			return nil, err
		}
		trs = append(trs, chaffs...)
	}
	dets, err := det.PrefixDetectionsWith(w.ws, trs)
	if err != nil {
		return nil, err
	}
	return detect.TrackingAccuracySeries(dets, trs, 0)
}

// TestBatchMatchesScalar: Run's batch dispatch must reproduce the scalar
// runOnce pipeline bit for bit across the population shapes — bare
// coexisting users, protected target, heterogeneous protection and the
// advanced detector.
func TestBatchMatchesScalar(t *testing.T) {
	target := modelChain(t, mobility.ModelSpatiallySkewed, 1)
	other := modelChain(t, mobility.ModelNonSkewed, 2)
	mo := chaff.NewMO(target)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"bare-others", Config{TargetChain: target, OtherChains: []*markov.Chain{other, other}, Horizon: 20}},
		{"protected-target", Config{TargetChain: target, OtherChains: []*markov.Chain{other},
			Strategy: chaff.NewIM(target), NumChaffs: 2, Horizon: 20}},
		{"hetero", Config{TargetChain: target, OtherChains: []*markov.Chain{other, target},
			Strategy: mo, NumChaffs: 1, Horizon: 20,
			OtherStrategies: []chaff.Strategy{chaff.NewIM(other), nil},
			OtherNumChaffs:  []int{2, 0}}},
		{"advanced", Config{TargetChain: target, OtherChains: []*markov.Chain{other},
			Strategy: mo, NumChaffs: 1, Horizon: 20, Gamma: detect.GammaFunc(mo.Gamma)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := engine.Options{Runs: 50, Seed: 23, Workers: 4}
			want := runScalar(t, tc.cfg, opts)
			got, err := Run(context.Background(), tc.cfg, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got.Runs != want.Runs {
				t.Fatalf("runs: batch %d, scalar %d", got.Runs, want.Runs)
			}
			for i := range want.PerSlot {
				if got.PerSlot[i] != want.PerSlot[i] {
					t.Fatalf("slot %d: batch %v, scalar %v", i, got.PerSlot[i], want.PerSlot[i])
				}
			}
		})
	}
}
