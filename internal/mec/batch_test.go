package mec

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"chaffmec/internal/chaff"
	"chaffmec/internal/engine"
	"chaffmec/internal/mobility"
)

func batchFixture(t *testing.T) (Config, func() (chaff.OnlineController, error)) {
	t.Helper()
	grid, err := mobility.NewGrid(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	chain, err := grid.Walk(0.7, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Chain: chain, NumChaffs: 2, Horizon: 30, Grid: grid}
	return cfg, func() (chaff.OnlineController, error) { return chaff.NewMO(chain), nil }
}

func TestRunBatchAggregates(t *testing.T) {
	cfg, newController := batchFixture(t)
	res, err := RunBatch(context.Background(), cfg, newController, engine.Options{Runs: 40, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Episodes != 40 || len(res.Tracking) != cfg.Horizon {
		t.Fatalf("shape: episodes %d, tracking length %d", res.Episodes, len(res.Tracking))
	}
	if res.Overall < 0 || res.Overall > 1 {
		t.Fatalf("overall tracking %v out of range", res.Overall)
	}
	// Every slot bills the chaffs, so the mean chaff cost is fixed (up to
	// floating-point accumulation).
	wantChaff := DefaultCostModel().ChaffSlotCost * float64(cfg.NumChaffs) * float64(cfg.Horizon)
	if diff := res.Costs.Chaff - wantChaff; diff < -1e-9 || diff > 1e-9 {
		t.Fatalf("chaff cost %v, want %v", res.Costs.Chaff, wantChaff)
	}
	if res.Migrations <= 0 {
		t.Fatal("no migrations recorded on a mobile walk")
	}
	if res.Costs.Total() <= res.Costs.Chaff {
		t.Fatal("total cost missing migration/comm components")
	}
}

func TestRunBatchDeterministicAcrossWorkerCounts(t *testing.T) {
	cfg, newController := batchFixture(t)
	ref, err := RunBatch(context.Background(), cfg, newController, engine.Options{Runs: 30, Seed: 11, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{4, runtime.GOMAXPROCS(0)} {
		got, err := RunBatch(context.Background(), cfg, newController, engine.Options{Runs: 30, Seed: 11, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("workers=%d: batch result differs from single-worker run", workers)
		}
	}
}

func TestRunBatchValidation(t *testing.T) {
	cfg, newController := batchFixture(t)
	if _, err := RunBatch(context.Background(), cfg, nil, engine.Options{Runs: 1}); err == nil {
		t.Fatal("nil controller factory accepted")
	}
	bad := cfg
	bad.Horizon = 0
	if _, err := RunBatch(context.Background(), bad, newController, engine.Options{Runs: 1}); err == nil {
		t.Fatal("invalid config accepted")
	}
	preset := cfg
	preset.Controller = chaff.NewMO(cfg.Chain)
	if _, err := RunBatch(context.Background(), preset, newController, engine.Options{Runs: 1}); err == nil {
		t.Fatal("pre-set cfg.Controller accepted (would be silently ignored)")
	}
}

// TestRunBatchMatchesPinnedValues pins RunBatch's aggregates on the 4×4
// grid with MO chaff and failure injection, so a change to how the
// engine hands episodes their streams cannot go unnoticed. The values
// are exact: any difference is a regression unless it is a deliberate,
// documented stream change re-pinned in the same commit.
func TestRunBatchMatchesPinnedValues(t *testing.T) {
	cfg, newController := batchFixture(t)
	cfg.Horizon = 12
	cfg.MigrationFailProb = 0.2
	res, err := RunBatch(context.Background(), cfg, newController, engine.Options{Runs: 24, Seed: 3, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	wantTracking := []float64{0.09722222222222221, 0.013888888888888888, 0.027777777777777776,
		0.05555555555555555, 0.08333333333333334, 0, 0, 0, 0.04166666666666667,
		0.08333333333333333, 0.08333333333333334, 0.04166666666666667}
	if !reflect.DeepEqual(res.Tracking, wantTracking) {
		t.Fatalf("tracking = %#v, want %#v", res.Tracking, wantTracking)
	}
	wantCosts := CostBreakdown{Migration: 8.25, Chaff: 2.4, Comm: 0.6666666666666666}
	if res.Costs != wantCosts {
		t.Fatalf("costs = %#v, want %#v", res.Costs, wantCosts)
	}
	got := []float64{res.Overall, res.OverallStdErr, res.Migrations, res.FailedMigrations, res.QoSViolations}
	want := []float64{0.04398148148148148, 0.011694223391844158, 8.25, 1.7916666666666667, 1.25}
	if !reflect.DeepEqual(got, want) || res.Episodes != 24 {
		t.Fatalf("overall/SE/migrations/failed/QoS = %v over %d episodes, want %v over 24", got, res.Episodes, want)
	}
}
