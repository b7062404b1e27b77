package multiuser

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"testing"

	"chaffmec/internal/chaff"
	"chaffmec/internal/detect"
	"chaffmec/internal/engine"
	"chaffmec/internal/markov"
	"chaffmec/internal/mobility"
	"chaffmec/internal/rng"
)

// TestRunMatchesPinnedValues pins a small fixed scenario's output. The
// values guard the current streams against accidental drift; they have
// been re-recorded twice, each time for a deliberate stream change: once
// when multiuser moved onto internal/engine (replacing the weak
// xor+multiply per-run seed mixing with the MixSeed avalanche), and once
// when the repository moved onto the internal/rng substrate (PR 2:
// splitmix64 per-worker sources replacing math/rand's lagged-Fibonacci
// source, and alias-table trajectory sampling replacing the linear
// scan). See the internal/rng package doc for the stream-stability
// contract governing future changes.
func TestRunMatchesPinnedValues(t *testing.T) {
	c := modelChain(t, mobility.ModelSpatiallySkewed, 1)
	cfg := Config{TargetChain: c, OtherChains: []*markov.Chain{c, c}, Horizon: 8,
		Strategy: chaff.NewMO(c), NumChaffs: 1}
	res, err := Run(context.Background(), cfg, engine.Options{Runs: 32, Seed: 12345, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	wantPerSlot := []float64{0.28124999999999994, 0.21875000000000006, 0.25,
		0.125, 0.1875, 0.125, 0.03125, 0.0625}
	wantStdErr := []float64{0.08075219711382271, 0.07424858801742054, 0.0777713771047819,
		0.05939887041393643, 0.07010217197868432, 0.059398870413936426, 0.031249999999999997, 0.04347552147751577}
	const wantOverall = 0.16015625
	const tol = 1e-12
	for i := range wantPerSlot {
		if math.Abs(res.PerSlot[i]-wantPerSlot[i]) > tol {
			t.Fatalf("PerSlot[%d] = %v, want %v", i, res.PerSlot[i], wantPerSlot[i])
		}
		if math.Abs(res.PerSlotStdErr[i]-wantStdErr[i]) > tol {
			t.Fatalf("PerSlotStdErr[%d] = %v, want %v", i, res.PerSlotStdErr[i], wantStdErr[i])
		}
	}
	if math.Abs(res.Overall-wantOverall) > tol {
		t.Fatalf("Overall = %v, want %v", res.Overall, wantOverall)
	}
}

// TestRunUsesEngineSeedDerivation re-derives one run's stream by hand and
// checks the harness produces exactly the result that stream yields: the
// weak per-package mixing is gone, runs draw from rng.Derive.
func TestRunUsesEngineSeedDerivation(t *testing.T) {
	c := modelChain(t, mobility.ModelNonSkewed, 1)
	cfg := Config{TargetChain: c, OtherChains: []*markov.Chain{c, c}, Horizon: 10}
	res, err := Run(context.Background(), cfg, engine.Options{Runs: 1, Seed: 77, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Replay run 0 with the engine's stream derivation, in the harness's
	// sampling order: target first, then the coexisting users.
	r := rng.NewRun(77, 0)
	var trs []markov.Trajectory
	for i := 0; i < 3; i++ {
		tr, err := c.Sample(r, 10)
		if err != nil {
			t.Fatal(err)
		}
		trs = append(trs, tr)
	}
	dets, err := detect.NewMLDetector(c).PrefixDetections(trs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := detect.TrackingAccuracySeries(dets, trs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.PerSlot, want) {
		t.Fatalf("single-run result %v does not match rng.NewRun replay %v", res.PerSlot, want)
	}
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	c := modelChain(t, mobility.ModelBothSkewed, 2)
	cfg := Config{TargetChain: c, OtherChains: []*markov.Chain{c}, Horizon: 12,
		Strategy: chaff.NewMO(c), NumChaffs: 1}
	ref, err := Run(context.Background(), cfg, engine.Options{Runs: 50, Seed: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{4, runtime.GOMAXPROCS(0)} {
		got, err := Run(context.Background(), cfg, engine.Options{Runs: 50, Seed: 4, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("workers=%d: result differs from the single-worker run", workers)
		}
	}
}

// TestAdvancedEavesdropper exercises the new strategy-aware multi-user
// eavesdropper: against a deterministic MO chaff it must do at least as
// well as the basic detector (it filters out the recognizable chaff).
func TestAdvancedEavesdropper(t *testing.T) {
	c := modelChain(t, mobility.ModelNonSkewed, 1)
	mo := chaff.NewMO(c)
	base := Config{TargetChain: c, OtherChains: []*markov.Chain{c, c},
		Strategy: mo, NumChaffs: 1, Horizon: 30}
	basic, err := Run(context.Background(), base, engine.Options{Runs: 150, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	adv := base
	adv.Gamma = mo.Gamma
	aware, err := Run(context.Background(), adv, engine.Options{Runs: 150, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if aware.Overall < basic.Overall-1e-9 {
		t.Fatalf("advanced eavesdropper (%v) below basic (%v) against deterministic MO",
			aware.Overall, basic.Overall)
	}
}
