package scenario

import (
	"context"
	"math"
	"testing"

	"chaffmec/internal/engine"
)

// adaptiveSpec is the shared adaptive test scenario: small enough to
// iterate fast, noisy enough that its tracking SE decays smoothly.
func adaptiveSpec(p *Precision) Spec {
	return Spec{
		Name: "adapt", Kind: "single", Strategy: "MO", NumChaffs: 1,
		Horizon: 10, Runs: 64, Seed: 11, Precision: p,
	}
}

// TestAdaptiveStopBounds is the acceptance criterion on stopping: an
// attainable SE target stops with MinRuns <= n < MaxRuns, an
// unattainable one exactly at MaxRuns, and the final report is complete
// with TotalRuns equal to the adaptively chosen count.
func TestAdaptiveStopBounds(t *testing.T) {
	// Calibrate an attainable goal: the SE a mid-size fixed run reaches.
	probe, err := RunJob(context.Background(), Job{Spec: adaptiveSpec(nil)})
	if err != nil {
		t.Fatal(err)
	}
	se64, err := probe.TargetSE(engine.Target{SE: 1})
	if err != nil {
		t.Fatal(err)
	}
	if se64 <= 0 {
		t.Fatalf("probe SE %v — scenario too deterministic for this test", se64)
	}

	attainable := &Precision{TargetSE: se64 * 1.05, MinRuns: 8, MaxRuns: 4096}
	rep, err := RunAdaptive(context.Background(), Job{Spec: adaptiveSpec(attainable)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := rep.RunCount
	if n < attainable.MinRuns || n >= attainable.MaxRuns {
		t.Fatalf("attainable target stopped at %d runs, want [%d,%d)", n, attainable.MinRuns, attainable.MaxRuns)
	}
	if rep.TotalRuns != n || !rep.Complete() {
		t.Fatalf("final report covers [%d,%d) of %d — not finalized", rep.RunStart, rep.RunStart+rep.RunCount, rep.TotalRuns)
	}
	if se, err := rep.TargetSE(engine.Target{SE: 1}); err != nil || se > attainable.TargetSE {
		t.Fatalf("stopped at SE %v (err %v), target %v", se, err, attainable.TargetSE)
	}

	unattainable := &Precision{TargetSE: 1e-9, MinRuns: 8, MaxRuns: 96}
	rep, err = RunAdaptive(context.Background(), Job{Spec: adaptiveSpec(unattainable)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RunCount != unattainable.MaxRuns || rep.TotalRuns != unattainable.MaxRuns {
		t.Fatalf("unattainable target stopped at %d runs, want exactly MaxRuns %d", rep.RunCount, unattainable.MaxRuns)
	}
}

// TestRunJobDispatchesAdaptive: a precision-carrying spec runs
// adaptively through the plain RunJob entry point (the one code path
// every kind shares), while a sharded job of the same spec executes its
// fixed slice.
func TestRunJobDispatchesAdaptive(t *testing.T) {
	p := &Precision{TargetSE: 1e-9, MinRuns: 4, MaxRuns: 12}
	rep, err := RunJob(context.Background(), Job{Spec: adaptiveSpec(p)})
	if err != nil {
		t.Fatal(err)
	}
	// Adaptive finalization: TotalRuns is the adaptively chosen count
	// inside [MinRuns, MaxRuns], not the spec's fixed Runs (64).
	if !rep.Complete() || rep.TotalRuns != rep.RunCount ||
		rep.TotalRuns < p.MinRuns || rep.TotalRuns > p.MaxRuns {
		t.Fatalf("RunJob did not adapt: %d of %d", rep.RunCount, rep.TotalRuns)
	}
	shard, err := RunJob(context.Background(), Job{Spec: adaptiveSpec(p), Shard: engine.Shard{Index: 0, Count: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if shard.RunStart != 0 || shard.RunCount != 32 { // half of the fixed Runs 64
		t.Fatalf("sharded precision job covers [%d,%d)", shard.RunStart, shard.RunStart+shard.RunCount)
	}
}

// TestAdaptiveProgressRounds checks the progress stream: contiguous
// ranges, growing coverage, final round flagged Done.
func TestAdaptiveProgressRounds(t *testing.T) {
	p := &Precision{TargetSE: 1e-9, MinRuns: 8, MaxRuns: 40}
	var rounds []Round
	if _, err := RunAdaptive(context.Background(), Job{Spec: adaptiveSpec(p)}, func(r Round) {
		rounds = append(rounds, r)
	}); err != nil {
		t.Fatal(err)
	}
	if len(rounds) < 2 {
		t.Fatalf("only %d rounds", len(rounds))
	}
	next := 0
	for i, r := range rounds {
		if r.Start != next || r.End <= r.Start || r.Covered != r.End {
			t.Fatalf("round %d: %+v (want contiguous from %d)", i, r, next)
		}
		if math.IsNaN(r.SE) || r.Target != p.TargetSE {
			t.Fatalf("round %d: SE %v target %v", i, r.SE, r.Target)
		}
		if r.Done != (i == len(rounds)-1) {
			t.Fatalf("round %d: Done = %v", i, r.Done)
		}
		next = r.End
	}
	if rounds[0].End != p.MinRuns || next != p.MaxRuns {
		t.Fatalf("schedule opened at %d (want %d), closed at %d (want %d)",
			rounds[0].End, p.MinRuns, next, p.MaxRuns)
	}
}

// TestTraceLabSharedAcrossRounds: the rounds (and repeated jobs) of a
// "trace" scenario reuse one cached TraceLab instead of rebuilding the
// trace pipeline per round.
func TestTraceLabSharedAcrossRounds(t *testing.T) {
	if testing.Short() {
		t.Skip("trace lab build")
	}
	sp := Spec{
		Name: "trace-cache", Kind: "trace", Nodes: 40, Horizon: 24,
		Strategy: "IM", NumChaffs: 1, Seed: 5, Runs: 8,
		Precision: &Precision{TargetSE: 1e-9, MinRuns: 4, MaxRuns: 12},
	}
	traceLabCache.Lock()
	before := traceLabCache.builds
	traceLabCache.Unlock()
	// Adaptive: several rounds; then the same job again whole.
	if _, err := RunJob(context.Background(), Job{Spec: sp}); err != nil {
		t.Fatal(err)
	}
	sp.Precision = nil
	if _, err := RunJob(context.Background(), Job{Spec: sp}); err != nil {
		t.Fatal(err)
	}
	traceLabCache.Lock()
	builds := traceLabCache.builds - before
	traceLabCache.Unlock()
	if builds != 1 {
		t.Fatalf("trace lab built %d times across rounds, want 1", builds)
	}
	// A different lab parameterisation builds (and caches) its own.
	sp.Nodes = 42
	sp.Name = "trace-cache-2"
	if _, err := RunJob(context.Background(), Job{Spec: sp}); err != nil {
		t.Fatal(err)
	}
	traceLabCache.Lock()
	builds = traceLabCache.builds - before
	traceLabCache.Unlock()
	if builds != 2 {
		t.Fatalf("distinct lab config reused a mismatched cache entry (%d builds)", builds)
	}
}
