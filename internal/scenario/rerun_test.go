package scenario_test

import (
	"context"
	"encoding/json"
	"errors"
	"testing"

	"chaffmec/internal/coordinator"
	"chaffmec/internal/report"
	"chaffmec/internal/scenario"
	"chaffmec/internal/store"
)

// The store journal is the one checkpoint of a job: a campaign
// journals its shard results, and a re-run of the same job on the same
// store computes only the runs the journal does not hold. These tests
// drive it through an in-process fleet of one, as cmd/experiments
// -scenario runs without a fleet flag.

// adaptiveSpec is the shared adaptive test scenario: small enough to
// iterate fast, noisy enough that its tracking SE decays smoothly.
func adaptiveSpec(p *scenario.Precision) scenario.Spec {
	return scenario.Spec{
		Name: "adapt", Kind: "single", Strategy: "MO", NumChaffs: 1,
		Horizon: 10, Runs: 64, Seed: 11, Precision: p,
	}
}

// norm serializes a report with the wall-clock field zeroed.
func norm(t *testing.T, rep *report.Report) string {
	t.Helper()
	cl := *rep
	cl.ElapsedMS = 0
	blob, err := json.Marshal(&cl)
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

func openStore(t *testing.T) *store.Store {
	t.Helper()
	st, err := store.Open(t.TempDir() + "/artifacts")
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// campaign runs the job over one in-process worker on the store and
// returns its report and events.
func campaign(ctx context.Context, st *store.Store, sp scenario.Spec, progress func(coordinator.Event)) (*report.Report, []coordinator.Event, error) {
	var events []coordinator.Event
	rep, err := coordinator.RunFleet(ctx, scenario.Job{Spec: sp},
		coordinator.StaticOf(&coordinator.InProcess{}), coordinator.Options{Store: st, Progress: func(e coordinator.Event) {
			events = append(events, e)
			if progress != nil {
				progress(e)
			}
		}})
	return rep, events, err
}

func count(events []coordinator.Event, kind coordinator.EventKind) int {
	n := 0
	for _, e := range events {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

// checkNoDispatchBelow fails if a dispatch touched a run below covered.
func checkNoDispatchBelow(t *testing.T, events []coordinator.Event, covered int) {
	t.Helper()
	for _, e := range events {
		if e.Kind == coordinator.EventDispatch && e.Shard.Start < covered {
			t.Fatalf("re-run dispatched %s, below the %d journaled runs", e.Shard, covered)
		}
	}
}

// TestRoundResumeEqualsWholeBitwise is the scenario-layer resume
// guarantee: a fixed job's first 13 runs, journaled by a shorter
// campaign, continue on a re-run into the one-shot run bit-for-bit.
func TestRoundResumeEqualsWholeBitwise(t *testing.T) {
	sp := adaptiveSpec(nil)
	whole, err := scenario.RunJob(context.Background(), scenario.Job{Spec: sp})
	if err != nil {
		t.Fatal(err)
	}
	st := openStore(t)
	first := sp
	first.Runs = 13
	if _, _, err := campaign(context.Background(), st, first, nil); err != nil {
		t.Fatal(err)
	}
	resumed, events, err := campaign(context.Background(), st, sp, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := norm(t, resumed), norm(t, whole); got != want {
		t.Fatalf("resumed fixed job differs from one-shot run:\n%s\n%s", got, want)
	}
	if count(events, coordinator.EventBanked) == 0 {
		t.Fatal("re-run banked none of the journaled runs")
	}
	checkNoDispatchBelow(t, events, first.Runs)
}

// TestAdaptiveCancelYieldsPartialAndResumesBitwise covers the
// cancellation contract: a context cancelled mid-round yields a
// well-formed partial whose coverage reflects only completed rounds,
// and re-running the cancelled store-backed campaign reproduces the
// uninterrupted adaptive run bit-for-bit without re-dispatching the
// journaled rounds.
func TestAdaptiveCancelYieldsPartialAndResumesBitwise(t *testing.T) {
	p := &scenario.Precision{TargetSE: 1e-9, MinRuns: 8, MaxRuns: 48} // 3+ rounds: 8, 16, 32, 48
	sp := adaptiveSpec(p)

	uninterrupted, err := scenario.RunAdaptive(context.Background(), scenario.Job{Spec: sp}, nil)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var rounds []scenario.Round
	partial, err := scenario.RunAdaptive(ctx, scenario.Job{Spec: sp}, func(r scenario.Round) {
		rounds = append(rounds, r)
		if len(rounds) == 2 {
			cancel() // the third round dies mid-flight
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if partial == nil {
		t.Fatal("cancelled adaptive job returned no partial")
	}
	if partial.RunStart != 0 || partial.RunCount != rounds[1].Covered {
		t.Fatalf("partial covers [%d,%d), want the %d runs of the completed rounds",
			partial.RunStart, partial.RunStart+partial.RunCount, rounds[1].Covered)
	}
	if partial.Complete() {
		t.Fatal("partial claims completeness")
	}
	if _, err := partial.Summary(); err != nil {
		t.Fatalf("partial not well-formed: %v", err)
	}

	// The same interruption on a store-backed campaign, then a re-run.
	st := openStore(t)
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	covered, done := 0, 0
	partial, _, err = campaign(ctx, st, sp, func(e coordinator.Event) {
		if e.Kind == coordinator.EventRound {
			if done++; done == 2 {
				covered = e.Round.Covered
				cancel()
			}
		}
	})
	if !errors.Is(err, context.Canceled) || partial == nil || partial.RunCount != covered {
		t.Fatalf("cancelled campaign: err %v, partial %v, want context.Canceled after %d runs", err, partial, covered)
	}
	resumed, events, err := campaign(context.Background(), st, sp, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := norm(t, resumed), norm(t, uninterrupted); got != want {
		t.Fatalf("resumed adaptive job differs from uninterrupted run:\n%s\n%s", got, want)
	}
	checkNoDispatchBelow(t, events, covered)
}

// TestResumeValidation: the journal only serves the experiment that
// wrote it. On one store, a campaign with another seed or another
// strategy banks nothing, while a changed precision block — which
// decides how many runs execute, never what one computes — banks the
// first campaign's runs.
func TestResumeValidation(t *testing.T) {
	st := openStore(t)
	sp := adaptiveSpec(nil)
	sp.Runs = 8
	if _, _, err := campaign(context.Background(), st, sp, nil); err != nil {
		t.Fatal(err)
	}
	otherSeed := sp
	otherSeed.Seed = 999
	otherStrategy := sp
	otherStrategy.Strategy = "IM"
	for _, foreign := range []scenario.Spec{otherSeed, otherStrategy} {
		_, events, err := campaign(context.Background(), st, foreign, nil)
		if err != nil {
			t.Fatal(err)
		}
		if n := count(events, coordinator.EventBanked); n != 0 {
			t.Fatalf("seed %d, strategy %s: banked %d records of another experiment", foreign.Seed, foreign.Strategy, n)
		}
	}
	reprec := sp
	reprec.Precision = &scenario.Precision{TargetSE: 1e-9, MinRuns: 8, MaxRuns: 24}
	rep, events, err := campaign(context.Background(), st, reprec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RunCount != 24 || count(events, coordinator.EventBanked) == 0 {
		t.Fatalf("retargeted re-run covers %d runs with %d banked records, want 24 and some",
			rep.RunCount, count(events, coordinator.EventBanked))
	}
}
