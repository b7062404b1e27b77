package coordinator

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"chaffmec/internal/engine"
	"chaffmec/internal/report"
	"chaffmec/internal/scenario"
)

// testSpec is a small, fast experiment every fan-out test distributes.
func testSpec() scenario.Spec {
	return scenario.Spec{
		Name: "fanout", Kind: "single", Strategy: "MO", NumChaffs: 1,
		Horizon: 10, Runs: 60, Seed: 7,
	}
}

// adaptiveSpec adds an SE target so the coordinator runs extension
// rounds instead of one fixed round.
func adaptiveSpec() scenario.Spec {
	sp := testSpec()
	sp.Runs = 200
	sp.Precision = &scenario.Precision{TargetSE: 0.04, MinRuns: 24, MaxRuns: 200}
	return sp
}

// norm serializes a report with the wall-clock field zeroed — the only
// field fan-out legitimately changes (merging sums the parts).
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

// single runs the reference single-process execution of the spec.
func single(t *testing.T, sp scenario.Spec) *report.Report {
	t.Helper()
	rep, err := scenario.RunJob(context.Background(), scenario.Job{Spec: sp})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// fakeTransport scripts per-dispatch behavior around the real
// in-process runner — the failure/straggler/partial injection seam.
type fakeTransport struct {
	label string
	// behave decides dispatch #call; nil runs the job for real.
	behave func(call int, ctx context.Context, job scenario.Job) (*report.Report, error)

	mu    sync.Mutex
	calls int
}

func (f *fakeTransport) Name() string { return f.label }

func (f *fakeTransport) Run(ctx context.Context, job scenario.Job) (*report.Report, error) {
	f.mu.Lock()
	call := f.calls
	f.calls++
	f.mu.Unlock()
	if f.behave != nil {
		return f.behave(call, ctx, job)
	}
	return scenario.RunJob(ctx, job)
}

// eventLog collects coordinator events thread-safely (Progress runs on
// the driving goroutine, but tests also read it after Run returns).
type eventLog struct {
	mu     sync.Mutex
	events []Event
}

func (l *eventLog) add(e Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = append(l.events, e)
}

func (l *eventLog) count(kind EventKind) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, e := range l.events {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

func TestFanOutFixedBitIdentical(t *testing.T) {
	sp := testSpec()
	want := single(t, sp)
	for _, workers := range []int{1, 2, 3} {
		got, err := RunFleet(context.Background(), scenario.Job{Spec: sp},
			StaticOf(InProcessFleet(workers)...), Options{})
		if err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		if norm(t, got) != norm(t, want) {
			t.Fatalf("%d-worker merge differs from single-process report", workers)
		}
	}
}

func TestFanOutAdaptiveBitIdentical(t *testing.T) {
	sp := adaptiveSpec()
	want := single(t, sp)
	log := &eventLog{}
	got, err := RunFleet(context.Background(), scenario.Job{Spec: sp},
		StaticOf(InProcessFleet(3)...), Options{Progress: log.add})
	if err != nil {
		t.Fatal(err)
	}
	if norm(t, got) != norm(t, want) {
		t.Fatal("adaptive fan-out differs from single-process adaptive run")
	}
	if got.TotalRuns >= 200 || got.TotalRuns < 24 {
		t.Fatalf("adaptive stop at %d runs, want within [24, 200)", got.TotalRuns)
	}
	if log.count(EventRound) < 2 {
		t.Fatalf("adaptive fan-out ran %d rounds, want >= 2", log.count(EventRound))
	}
}

func TestFanOutRetriesCrashedWorker(t *testing.T) {
	sp := testSpec()
	want := single(t, sp)
	// Worker 0 crashes on every dispatch; after WorkerFailLimit failures
	// it leaves the fleet and the others re-run its shards. The healthy
	// pair is held until the coordinator has declared crashy dead:
	// otherwise they may drain every queued shard first, or speculatively
	// resolve crashy's shard so that its error arrives too late to count.
	crash := &fakeTransport{label: "crashy", behave: func(int, context.Context, scenario.Job) (*report.Report, error) {
		return nil, errors.New("boom")
	}}
	dead := make(chan struct{})
	held := func(_ int, ctx context.Context, job scenario.Job) (*report.Report, error) {
		select {
		case <-dead:
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(10 * time.Second):
			return nil, errors.New("crashy was never declared dead")
		}
		return scenario.RunJob(ctx, job)
	}
	log := &eventLog{}
	fleet := StaticOf(crash,
		&fakeTransport{label: "healthy-0", behave: held},
		&fakeTransport{label: "healthy-1", behave: held})
	got, err := RunFleet(context.Background(), scenario.Job{Spec: sp}, fleet, Options{
		Progress: func(e Event) {
			log.add(e)
			if e.Kind == EventWorkerDead && e.Worker == "crashy" {
				close(dead)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if norm(t, got) != norm(t, want) {
		t.Fatal("merge after worker crash differs from single-process report")
	}
	if log.count(EventFailure) == 0 {
		t.Fatal("no failure events for the crashing worker")
	}
	if log.count(EventWorkerDead) != 1 {
		t.Fatalf("worker-dead events = %d, want 1", log.count(EventWorkerDead))
	}
}

func TestFanOutBanksPartialAndRequeuesRemainder(t *testing.T) {
	sp := testSpec()
	want := single(t, sp)
	// Worker "mortal" dies mid-shard on its first dispatch, but returns
	// the checkpointed first half of its span — the coordinator must
	// bank the prefix and re-dispatch only the remainder.
	mortal := &fakeTransport{label: "mortal"}
	mortal.behave = func(call int, ctx context.Context, job scenario.Job) (*report.Report, error) {
		if call > 0 {
			return scenario.RunJob(ctx, job)
		}
		mid := job.Shard.Start + (job.Shard.End-job.Shard.Start+1)/2
		prefix, err := scenario.RunJob(ctx, scenario.Job{Spec: job.Spec, Shard: engine.Span(job.Shard.Start, mid)})
		if err != nil {
			return nil, err
		}
		return prefix, fmt.Errorf("%w: terminated", ErrPartial)
	}
	// Speculation is off: a healthy worker re-running mortal's in-flight
	// shard could resolve it before the partial lands, and this test is
	// about prefix banking, not speculation.
	log := &eventLog{}
	got, err := RunFleet(context.Background(), scenario.Job{Spec: sp},
		StaticOf(append([]Transport{mortal}, InProcessFleet(2)...)...), Options{
			NoSpeculation: true,
			Progress:      log.add,
		})
	if err != nil {
		t.Fatal(err)
	}
	if norm(t, got) != norm(t, want) {
		t.Fatal("merge after mid-shard death differs from single-process report")
	}
	if log.count(EventPartial) != 1 {
		t.Fatalf("partial events = %d, want 1", log.count(EventPartial))
	}
}

func TestFanOutSpeculatesAroundStraggler(t *testing.T) {
	sp := testSpec()
	want := single(t, sp)
	// Worker "slow" hangs forever on its first dispatch (until the
	// coordinator cancels it); an idle worker must speculatively re-run
	// the stuck shard so the round still completes.
	slow := &fakeTransport{label: "slow"}
	slow.behave = func(call int, ctx context.Context, job scenario.Job) (*report.Report, error) {
		if call > 0 {
			return scenario.RunJob(ctx, job)
		}
		<-ctx.Done()
		return nil, ctx.Err()
	}
	log := &eventLog{}
	got, err := RunFleet(context.Background(), scenario.Job{Spec: sp},
		StaticOf(append([]Transport{slow}, InProcessFleet(2)...)...), Options{Progress: log.add})
	if err != nil {
		t.Fatal(err)
	}
	if norm(t, got) != norm(t, want) {
		t.Fatal("merge with straggler differs from single-process report")
	}
	// The straggler neither failed the job nor was booked as a crash.
	if log.count(EventWorkerDead) != 0 {
		t.Fatal("straggler was declared dead")
	}
}

func TestFanOutShardExhaustsFleet(t *testing.T) {
	bad := func(label string) *fakeTransport {
		return &fakeTransport{label: label, behave: func(int, context.Context, scenario.Job) (*report.Report, error) {
			return nil, errors.New("always fails")
		}}
	}
	_, err := RunFleet(context.Background(), scenario.Job{Spec: testSpec()},
		StaticOf(bad("a"), bad("b")), Options{})
	if err == nil {
		t.Fatal("all-failing fleet succeeded")
	}
	if !strings.Contains(err.Error(), "[") {
		t.Fatalf("error %q does not name a shard range", err)
	}
}

func TestFanOutRejectsShardedJob(t *testing.T) {
	_, err := RunFleet(context.Background(),
		scenario.Job{Spec: testSpec(), Shard: engine.Shard{Index: 0, Count: 2}},
		StaticOf(InProcessFleet(1)...), Options{})
	if err == nil || !strings.Contains(err.Error(), "whole") {
		t.Fatalf("sharded job accepted: %v", err)
	}
	if _, err := RunFleet(context.Background(), scenario.Job{Spec: testSpec()}, StaticOf(), Options{}); err == nil {
		t.Fatal("empty fleet accepted")
	}
}

func TestFanOutCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunFleet(ctx, scenario.Job{Spec: testSpec()}, StaticOf(InProcessFleet(2)...), Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestFanOutDispatchTimeoutRescuesHungWorker(t *testing.T) {
	sp := testSpec()
	want := single(t, sp)
	// Worker "hung" never returns until cancelled. With speculation off
	// and no timeout the round would wait on it forever; DispatchTimeout
	// turns the hang into a counted failure retried elsewhere.
	hung := &fakeTransport{label: "hung", behave: func(call int, ctx context.Context, job scenario.Job) (*report.Report, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}}
	log := &eventLog{}
	got, err := RunFleet(context.Background(), scenario.Job{Spec: sp},
		StaticOf(append([]Transport{hung}, InProcessFleet(2)...)...), Options{
			NoSpeculation:   true,
			DispatchTimeout: 100 * time.Millisecond,
			Progress:        log.add,
		})
	if err != nil {
		t.Fatal(err)
	}
	if norm(t, got) != norm(t, want) {
		t.Fatal("merge after dispatch timeouts differs from single-process report")
	}
	if log.count(EventFailure)+log.count(EventWorkerDead) == 0 {
		t.Fatal("hung worker produced no failure events")
	}
	// A fleet that is ALL hung must error out instead of deadlocking.
	_, err = RunFleet(context.Background(), scenario.Job{Spec: sp}, StaticOf(hung), Options{
		NoSpeculation:   true,
		DispatchTimeout: 50 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("all-hung fleet succeeded")
	}
}
