package chaffmec

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"chaffmec/internal/coordinator"
	"chaffmec/internal/rng"
)

func TestBuildModelAndEvaluate(t *testing.T) {
	model, err := BuildModel(ModelNonSkewed, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Evaluate(Evaluation{
		Chain: model, Strategy: "MO", NumChaffs: 1, Horizon: 60,
		Runs: 100, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerSlot) != 60 || res.Runs != 100 {
		t.Fatalf("shape wrong: %d slots, %d runs", len(res.PerSlot), res.Runs)
	}
	if res.Overall <= 0 || res.Overall >= 1 {
		t.Fatalf("overall %v out of range", res.Overall)
	}
	// MO must beat IM on model (a).
	im, err := Evaluate(Evaluation{
		Chain: model, Strategy: "IM", NumChaffs: 1, Horizon: 60,
		Runs: 100, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Overall >= im.Overall {
		t.Fatalf("MO %v not below IM %v", res.Overall, im.Overall)
	}
}

func TestEvaluateAdvanced(t *testing.T) {
	model, err := BuildModel(ModelSpatiallySkewed, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	det, err := Evaluate(Evaluation{
		Chain: model, Strategy: "MO", NumChaffs: 1, Horizon: 40,
		Runs: 50, Seed: 3, Advanced: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if det.Overall < 0.99 {
		t.Fatalf("advanced eavesdropper vs MO: %v, want ≈ 1", det.Overall)
	}
	rob, err := Evaluate(Evaluation{
		Chain: model, Strategy: "RMO", NumChaffs: 9, Horizon: 40,
		Runs: 50, Seed: 3, Advanced: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rob.Overall >= det.Overall {
		t.Fatalf("RMO %v not below MO %v under the advanced eavesdropper", rob.Overall, det.Overall)
	}
}

func TestEvaluateValidation(t *testing.T) {
	if _, err := Evaluate(Evaluation{}); err == nil {
		t.Fatal("empty evaluation accepted")
	}
	model, _ := BuildModel(ModelNonSkewed, 10, 1)
	if _, err := Evaluate(Evaluation{Chain: model, Strategy: "nope", NumChaffs: 1, Horizon: 5}); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

func TestGammaMapping(t *testing.T) {
	model, _ := BuildModel(ModelNonSkewed, 10, 1)
	for _, name := range []string{"ML", "CML", "OO", "MO", "RML", "ROO", "RMO"} {
		g, err := Gamma(name, model)
		if err != nil {
			t.Fatalf("Gamma(%s): %v", name, err)
		}
		user, _ := model.Sample(rng.New(1), 10)
		tr, err := g(user)
		if err != nil {
			t.Fatal(err)
		}
		if len(tr) != 10 {
			t.Fatalf("Gamma(%s) length %d", name, len(tr))
		}
	}
	if _, err := Gamma("IM", model); err == nil {
		t.Fatal("IM should have no deterministic Γ")
	}
}

func TestIMAccuracyFacade(t *testing.T) {
	model, _ := BuildModel(ModelTemporallySkewed, 10, 1)
	acc, err := IMAccuracy(model, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Model (c) is uniform: Eq. 11 = 0.1 + 0.9/10 = 0.19.
	if math.Abs(acc-0.19) > 1e-6 {
		t.Fatalf("IMAccuracy = %v, want 0.19", acc)
	}
}

func TestTrackingBoundFacade(t *testing.T) {
	chain, err := NewChain([][]float64{
		{0.5, 0.3, 0.2},
		{0.2, 0.5, 0.3},
		{0.3, 0.2, 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	bound, holds, err := TrackingBound(chain, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if !holds || bound >= 1 {
		t.Fatalf("bound=%v holds=%v at T=4000", bound, holds)
	}
}

func TestMECFacade(t *testing.T) {
	grid, err := NewGrid(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	chain, err := grid.Walk(0.7, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := NewOnlineController("MO", chain)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewMECSimulator(MECConfig{
		Chain: chain, Controller: ctrl, NumChaffs: 1, Horizon: 30, Grid: grid,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Overall < 0 || rep.Overall > 1 {
		t.Fatalf("overall %v", rep.Overall)
	}
	// Offline strategies cannot drive the online simulator.
	if _, err := NewOnlineController("OO", chain); err == nil {
		t.Fatal("offline OO accepted as online controller")
	}
}

func TestStrategyNames(t *testing.T) {
	names := StrategyNames()
	if len(names) != 10 {
		t.Fatalf("strategies = %v", names)
	}
}

// TestEvaluateAdvancedGammaFallback pins the Γ error handling of
// Evaluate: strategies without a deterministic Γ (IM, Rollout) degrade
// to the basic detector instead of erroring, while a real Γ construction
// failure is returned (historically the `if err == nil` branch swallowed
// every error, hiding e.g. ApproxDP solver failures).
func TestEvaluateAdvancedGammaFallback(t *testing.T) {
	model, err := BuildModel(ModelNonSkewed, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	adv, err := Evaluate(Evaluation{
		Chain: model, Strategy: "IM", NumChaffs: 2, Horizon: 20,
		Runs: 40, Seed: 1, Advanced: true,
	})
	if err != nil {
		t.Fatalf("IM under the advanced flag must fall back to basic detection: %v", err)
	}
	basic, err := Evaluate(Evaluation{
		Chain: model, Strategy: "IM", NumChaffs: 2, Horizon: 20,
		Runs: 40, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Same streams, same detector: the fallback is exactly the basic run.
	if adv.Overall != basic.Overall {
		t.Fatalf("IM advanced fallback %v != basic %v", adv.Overall, basic.Overall)
	}
	if !errors.Is(mustGammaErr(t, "IM", model), ErrNoGamma) {
		t.Fatal("Gamma(IM) does not mark ErrNoGamma")
	}
	if errors.Is(mustGammaErr(t, "nope", model), ErrNoGamma) {
		t.Fatal("unknown strategy misreported as ErrNoGamma")
	}
}

// TestEvaluateAdvancedOOCappedGamma: Evaluate injects OO's capped Γ.
// Its result must equal, bit for bit, a Job with the full Γ injected.
func TestEvaluateAdvancedOOCappedGamma(t *testing.T) {
	model, err := BuildModel(ModelSpatiallySkewed, 10, 2017)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Evaluate(Evaluation{
		Chain: model, Strategy: "OO", NumChaffs: 1, Horizon: 60, Runs: 40, Seed: 5, Advanced: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	full, err := Gamma("OO", model)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunJob(context.Background(), Job{Spec: ScenarioSpec{
		Kind: "single", Chain: model, Strategy: "OO", NumChaffs: 1, Horizon: 60, Runs: 40, Seed: 5,
		Advanced: true, Gamma: func(u Trajectory, _ int) (Trajectory, error) { return full(u) },
	}})
	if err != nil {
		t.Fatal(err)
	}
	want, err := rep.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.PerSlot, want.PerSlot) || got.Overall != want.Overall {
		t.Fatalf("capped Γ Evaluate %v, full Γ job %v", got.PerSlot, want.PerSlot)
	}
}

func mustGammaErr(t *testing.T, name string, chain *Chain) error {
	t.Helper()
	_, err := Gamma(name, chain)
	if err == nil {
		t.Fatalf("Gamma(%s) unexpectedly succeeded", name)
	}
	return err
}

// TestRunJobShardMergeFacade drives the public Job/Report surface end to
// end: two shards, a file round trip, and a merge reproducing the whole
// run bit-for-bit.
func TestRunJobShardMergeFacade(t *testing.T) {
	spec := ScenarioSpec{Kind: "single", Strategy: "MO", NumChaffs: 1,
		Horizon: 10, Runs: 24, Seed: 9}
	whole, err := RunJob(context.Background(), Job{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var files []string
	for i := 0; i < 2; i++ {
		part, err := RunJob(context.Background(), Job{Spec: spec, Shard: Shard{Index: i, Count: 2}})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, fmt.Sprintf("part%d.json", i))
		if err := WriteReports(path, []*Report{part}); err != nil {
			t.Fatal(err)
		}
		files = append(files, path)
	}
	var parts []*Report
	for _, path := range files {
		got, err := ReadReports(path)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, got...)
	}
	merged, err := MergeReports(parts...)
	if err != nil {
		t.Fatal(err)
	}
	if !merged.Complete() {
		t.Fatal("merged report incomplete")
	}
	wholeSum, err := whole.Summary()
	if err != nil {
		t.Fatal(err)
	}
	mergedSum, err := merged.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wholeSum, mergedSum) {
		t.Fatalf("merged summary differs from whole run:\n%+v\n%+v", mergedSum, wholeSum)
	}
	// Cancellation crosses the facade too.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunJob(ctx, Job{Spec: ScenarioSpec{Kind: "single", Strategy: "MO", Runs: 1 << 20}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled job returned %v", err)
	}
}

// TestAdaptiveResumeFacade drives the checkpoint-restart surface:
// Evaluate with a precision target adapts its run count; RunAdaptiveJob,
// ResumeJob and ExtendReport reproduce the uninterrupted run bit-for-bit
// from a mid-job checkpoint.
func TestAdaptiveResumeFacade(t *testing.T) {
	ctx := context.Background()
	chain, err := BuildModel(ModelNonSkewed, 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Evaluate(Evaluation{
		Chain: chain, Strategy: "MO", NumChaffs: 1, Horizon: 10, Runs: 64, Seed: 5,
		Precision: &ScenarioPrecision{TargetSE: 1e-9, MinRuns: 8, MaxRuns: 24},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs < 8 || res.Runs > 24 {
		t.Fatalf("adaptive Evaluate ran %d runs, want [8,24]", res.Runs)
	}

	spec := ScenarioSpec{Kind: "single", Strategy: "MO", NumChaffs: 1,
		Horizon: 10, Runs: 64, Seed: 5,
		Precision: &ScenarioPrecision{TargetSE: 1e-9, MinRuns: 8, MaxRuns: 40}}
	job := Job{Spec: spec}
	whole, err := RunAdaptiveJob(ctx, job, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Checkpoint after the first round, through a file, then resume.
	ctx2, cancel := context.WithCancel(ctx)
	partial, err := RunAdaptiveJob(ctx2, job, func(r AdaptiveRound) { cancel() })
	if !errors.Is(err, context.Canceled) || partial == nil {
		t.Fatalf("interrupted job: rep %v err %v", partial, err)
	}
	path := filepath.Join(t.TempDir(), "ckpt.json")
	if err := WriteReports(path, []*Report{partial}); err != nil {
		t.Fatal(err)
	}
	back, err := ReadReports(path)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := ResumeJob(ctx, job, back[0])
	if err != nil {
		t.Fatal(err)
	}
	resumed.ElapsedMS = whole.ElapsedMS
	if !reflect.DeepEqual(whole, resumed) {
		t.Fatalf("resumed report differs from uninterrupted run:\n%+v\n%+v", resumed, whole)
	}

	// ExtendReport is the primitive: a later explicit-range shard of the
	// same experiment extends a partial in place.
	first, err := RunJob(ctx, Job{Spec: ScenarioSpec{Kind: "single", Strategy: "MO", NumChaffs: 1,
		Horizon: 10, Runs: 20, Seed: 5}, Shard: Shard{Index: 0, Count: 2}})
	if err != nil {
		t.Fatal(err)
	}
	second, err := RunJob(ctx, Job{Spec: ScenarioSpec{Kind: "single", Strategy: "MO", NumChaffs: 1,
		Horizon: 10, Runs: 20, Seed: 5}, Shard: Shard{Index: 1, Count: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if err := ExtendReport(first, second); err != nil {
		t.Fatal(err)
	}
	if !first.Complete() || first.RunCount != 20 {
		t.Fatalf("extended report covers [%d,%d) of %d", first.RunStart, first.RunStart+first.RunCount, first.TotalRuns)
	}
}

// TestRunDistributedJobFacade: the facade's fan-out over a default
// in-process fleet produces the bit-identical Report of a
// single-process RunJob — fixed and SE-targeted adaptive jobs alike.
func TestRunDistributedJobFacade(t *testing.T) {
	ctx := context.Background()
	norm := func(r *Report) string {
		cl := *r
		cl.ElapsedMS = 0
		blob, err := json.Marshal(&cl)
		if err != nil {
			t.Fatal(err)
		}
		return string(blob)
	}
	for name, spec := range map[string]ScenarioSpec{
		"fixed": {Kind: "single", Strategy: "MO", NumChaffs: 1, Horizon: 10, Runs: 40, Seed: 5},
		"adaptive": {Kind: "single", Strategy: "MO", NumChaffs: 1, Horizon: 10, Runs: 200, Seed: 5,
			Precision: &ScenarioPrecision{TargetSE: 0.04, MinRuns: 16, MaxRuns: 200}},
	} {
		want, err := RunJob(ctx, Job{Spec: spec})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var events []FanOutEvent
		fleet, err := NewFleet(WithInProcessWorkers(3), WithProgress(func(e FanOutEvent) { events = append(events, e) }))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := fleet.Run(ctx, Job{Spec: spec})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if norm(got) != norm(want) {
			t.Fatalf("%s: distributed report differs from RunJob", name)
		}
		if len(events) == 0 {
			t.Fatalf("%s: no fan-out events observed", name)
		}
	}
}

// TestNewFleetFacade: the builder's options — a static fleet's Run
// matches RunJob bit-for-bit, weights skew the shard shares, and a
// configured Fleet is reusable across jobs.
func TestNewFleetFacade(t *testing.T) {
	ctx := context.Background()
	spec := ScenarioSpec{Kind: "single", Strategy: "MO", NumChaffs: 1, Horizon: 10, Runs: 40, Seed: 5}
	norm := func(r *Report) string {
		cl := *r
		cl.ElapsedMS = 0
		blob, err := json.Marshal(&cl)
		if err != nil {
			t.Fatal(err)
		}
		return string(blob)
	}
	want, err := RunJob(ctx, Job{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}

	var events []FanOutEvent
	fleet, err := NewFleet(
		WithInProcessWorkers(2),
		WithShardsPerWorker(1),
		WithoutSpeculation(),
		WithProgress(func(e FanOutEvent) { events = append(events, e) }),
	)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ { // a Fleet is reusable
		got, err := fleet.Run(ctx, Job{Spec: spec})
		if err != nil {
			t.Fatal(err)
		}
		if norm(got) != norm(want) {
			t.Fatalf("run %d: fleet report differs from RunJob", round)
		}
	}
	joins := 0
	for _, e := range events {
		if e.Kind == EventWorkerJoin {
			joins++
		}
	}
	if joins == 0 {
		t.Fatal("no worker-join events: admissions are not observable")
	}

	if _, err := NewFleet(); err == nil {
		t.Fatal("NewFleet with no workers succeeded")
	}

	// Weighted members skew the per-round dispatch shares.
	var spans []Shard
	weighted, err := NewFleet(
		WithWeighted(3, &coordinator.InProcess{Label: "heavy"}),
		WithWeighted(1, &coordinator.InProcess{Label: "light"}),
		WithShardsPerWorker(1),
		WithoutSpeculation(),
		WithProgress(func(e FanOutEvent) {
			if e.Kind == EventDispatch {
				spans = append(spans, e.Shard)
			}
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	got, err := weighted.Run(ctx, Job{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if norm(got) != norm(want) {
		t.Fatal("weighted fleet report differs from RunJob")
	}
	if len(spans) != 2 || spans[0].End-spans[0].Start != 30 || spans[1].End-spans[1].Start != 10 {
		t.Fatalf("weighted shares = %v, want 30 and 10 of 40 runs", spans)
	}
}

// TestFleetResumeFacade: Resume over a store-backed fleet finishes a
// campaign from its banked checkpoint without re-running covered runs.
func TestFleetResumeFacade(t *testing.T) {
	ctx := context.Background()
	spec := ScenarioSpec{Kind: "single", Strategy: "MO", NumChaffs: 1, Horizon: 10, Runs: 40, Seed: 5}
	norm := func(r *Report) string {
		cl := *r
		cl.ElapsedMS = 0
		blob, err := json.Marshal(&cl)
		if err != nil {
			t.Fatal(err)
		}
		return string(blob)
	}
	want, err := RunJob(ctx, Job{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	st, err := OpenStore(filepath.Join(t.TempDir(), "artifacts"))
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := NewFleet(WithInProcessWorkers(2), WithStore(st))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fleet.Run(ctx, Job{Spec: spec}); err != nil {
		t.Fatal(err)
	}
	// The banked campaign resolves the resumed job without dispatching.
	var dispatches int
	resumed, err := NewFleet(
		WithInProcessWorkers(2), WithStore(st),
		WithProgress(func(e FanOutEvent) {
			if e.Kind == EventDispatch {
				dispatches++
			}
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	got, err := resumed.Resume(ctx, Job{Spec: spec}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if norm(got) != norm(want) {
		t.Fatal("resumed campaign differs from RunJob")
	}
	if dispatches != 0 {
		t.Fatalf("finished campaign re-dispatched %d shards, want 0", dispatches)
	}
}
