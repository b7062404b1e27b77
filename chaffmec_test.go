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
	"chaffmec/internal/report"
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

// TestEvaluateAdvancedOOCappedGamma: Evaluate takes OO as its own Γ.
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

// TestEvaluateAdvancedSelfGamma: for a deterministic strategy an
// advanced Evaluate injects no Γ, so it runs exactly the Job of the same
// spec without Gamma — the runner's one-plan self-Γ path — bit for bit.
func TestEvaluateAdvancedSelfGamma(t *testing.T) {
	model, err := BuildModel(ModelSpatiallySkewed, 10, 2017)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"OO", "MO", "ApproxDP"} {
		got, err := Evaluate(Evaluation{
			Chain: model, Strategy: name, NumChaffs: 1, Horizon: 40, Runs: 48, Seed: 9, Advanced: true, Workers: 2,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rep, err := RunJob(context.Background(), Job{Spec: ScenarioSpec{
			Kind: "single", Chain: model, Strategy: name, NumChaffs: 1, Horizon: 40, Runs: 48, Seed: 9,
			Advanced: true, Workers: 2,
		}})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := rep.Summary()
		if err != nil {
			t.Fatal(err)
		}
		det, err := rep.SeriesStats(report.SeriesDetection)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.PerSlot, want.PerSlot) || got.Overall != want.Overall ||
			!reflect.DeepEqual(got.Detection, det.Mean()) || got.Runs != want.Runs {
			t.Fatalf("%s: Evaluate %v, Job without Γ %v", name, got.PerSlot, want.PerSlot)
		}
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
// Evaluate with a precision target adapts its run count; an adaptive
// job on a store-backed fleet, interrupted after its first round and
// run again on the same store, reproduces RunAdaptiveJob's
// uninterrupted run bit-for-bit without re-running the first round.
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

	// Interrupt after the first round.
	st, err := OpenStore(filepath.Join(t.TempDir(), "artifacts"))
	if err != nil {
		t.Fatal(err)
	}
	ctx2, cancel := context.WithCancel(ctx)
	defer cancel()
	covered := 0
	first, err := NewFleet(WithInProcessWorkers(1), WithStore(st), WithProgress(func(e FanOutEvent) {
		if e.Kind == EventRound && covered == 0 {
			covered = e.Round.Covered
			cancel()
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	partial, err := first.Run(ctx2, job)
	if !errors.Is(err, context.Canceled) || partial == nil || partial.RunCount != covered {
		t.Fatalf("interrupted job: rep %v err %v, want the %d runs of round 1", partial, err, covered)
	}

	// Run again on the same store.
	var redone []Shard
	again, err := NewFleet(WithInProcessWorkers(1), WithStore(st), WithProgress(func(e FanOutEvent) {
		if e.Kind == EventDispatch && e.Shard.Start < covered {
			redone = append(redone, e.Shard)
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := again.Run(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	if len(redone) != 0 {
		t.Fatalf("re-run dispatched journaled runs again: %v", redone)
	}
	resumed.ElapsedMS = whole.ElapsedMS
	if !reflect.DeepEqual(whole, resumed) {
		t.Fatalf("resumed report differs from uninterrupted run:\n%+v\n%+v", resumed, whole)
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

// hangAfterFirst runs its first shard in process and hangs on every
// later one until the dispatch is cancelled.
type hangAfterFirst struct {
	coordinator.InProcess
	calls int
}

func (h *hangAfterFirst) Run(ctx context.Context, job Job) (*Report, error) {
	if h.calls++; h.calls == 1 {
		return h.InProcess.Run(ctx, job)
	}
	<-ctx.Done()
	return nil, ctx.Err()
}

// TestFleetResumeFacade: a store-backed fleet campaign cancelled after
// its first shard, run again on the same store, finishes without
// re-running that shard, and a third run of the finished campaign
// dispatches nothing.
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
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var done []Shard
	interrupted, err := NewFleet(WithWorkers(&hangAfterFirst{}), WithStore(st), WithProgress(func(e FanOutEvent) {
		if e.Kind == EventResult {
			done = append(done, e.Shard)
			cancel()
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := interrupted.Run(cctx, Job{Spec: spec}); !errors.Is(err, context.Canceled) || len(done) != 1 {
		t.Fatalf("interrupted campaign: err %v after %d shards, want context.Canceled after 1", err, len(done))
	}

	var dispatched []Shard
	banked := 0
	fleet, err := NewFleet(
		WithInProcessWorkers(2), WithStore(st),
		WithProgress(func(e FanOutEvent) {
			switch e.Kind {
			case EventDispatch:
				dispatched = append(dispatched, e.Shard)
			case EventBanked:
				banked++
			}
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	got, err := fleet.Run(ctx, Job{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if norm(got) != norm(want) {
		t.Fatal("resumed campaign differs from RunJob")
	}
	for _, sh := range dispatched {
		if sh.Start < done[0].End && done[0].Start < sh.End {
			t.Fatalf("re-run dispatched %s, which the journal holds (%s)", sh, done[0])
		}
	}
	if banked != 1 || len(dispatched) == 0 {
		t.Fatalf("re-run banked %d records, dispatched %d shards; want 1 and the rest", banked, len(dispatched))
	}

	// The finished campaign resolves without dispatching.
	dispatched, banked = nil, 0
	if got, err = fleet.Run(ctx, Job{Spec: spec}); err != nil {
		t.Fatal(err)
	}
	if norm(got) != norm(want) || len(dispatched) != 0 {
		t.Fatalf("finished campaign re-dispatched %d shards (report equal %v), want 0", len(dispatched), norm(got) == norm(want))
	}
}
