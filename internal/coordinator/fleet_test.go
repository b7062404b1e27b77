package coordinator

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"chaffmec/internal/engine"
	"chaffmec/internal/report"
	"chaffmec/internal/scenario"
	"chaffmec/internal/store"
)

// countFor counts events of a kind attributed to one worker.
func countFor(l *eventLog, kind EventKind, worker string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, e := range l.events {
		if e.Kind == kind && e.Worker == worker {
			n++
		}
	}
	return n
}

func TestStaticFleetIdentity(t *testing.T) {
	a := &fakeTransport{label: "w"}
	b := &fakeTransport{label: "w"}
	f := StaticOf(a, b)
	m := f.Members()
	if len(m) != 2 || m[0].ID != "w" || m[1].ID != "w#2" {
		t.Fatalf("duplicate names not disambiguated: %+v", m)
	}
	if m[0].Weight != 1 || m[1].Weight != 1 {
		t.Fatalf("default weights = %g, %g, want 1", m[0].Weight, m[1].Weight)
	}
	if f.Updates() != nil {
		t.Fatal("static fleet announces updates; the dispatcher would wait forever on exhaustion")
	}
	g := Static(Member{ID: "big", Weight: 3, Transport: a}, Member{Weight: -2, Transport: b})
	gm := g.Members()
	if gm[0].Weight != 3 || gm[1].Weight != 1 || gm[1].ID != "w" {
		t.Fatalf("explicit members normalized wrong: %+v", gm)
	}
}

// TestWeightedDispatchShares pins the capacity-weighted split end to
// end: a weight-3 member is planned three times the runs of a weight-1
// member, and the merge still matches the single-process report.
func TestWeightedDispatchShares(t *testing.T) {
	sp := testSpec() // 60 fixed runs
	want := single(t, sp)
	big := &fakeTransport{label: "big"}
	small := &fakeTransport{label: "small"}
	log := &eventLog{}
	got, err := RunFleet(context.Background(), scenario.Job{Spec: sp},
		Static(
			Member{ID: "big", Weight: 3, Transport: big},
			Member{ID: "small", Weight: 1, Transport: small},
		),
		Options{ShardsPerWorker: 1, NoSpeculation: true, Progress: log.add})
	if err != nil {
		t.Fatal(err)
	}
	if norm(t, got) != norm(t, want) {
		t.Fatal("weighted fleet merge differs from single-process report")
	}
	spans := map[string]engine.Shard{}
	log.mu.Lock()
	for _, e := range log.events {
		if e.Kind == EventDispatch {
			spans[e.Worker] = e.Shard
		}
	}
	dispatches := 0
	for _, e := range log.events {
		if e.Kind == EventDispatch {
			dispatches++
		}
	}
	log.mu.Unlock()
	if dispatches != 2 {
		t.Fatalf("dispatches = %d, want exactly one per worker", dispatches)
	}
	if spans["big"] != engine.Span(0, 45) || spans["small"] != engine.Span(45, 60) {
		t.Fatalf("weighted shares: big %s, small %s, want [0,45) and [45,60)", spans["big"], spans["small"])
	}
}

// TestFleetChurnGoldenEvents is the churn test of the elastic fleet:
// three persistent workers behind a real registry (registration and
// heartbeats over HTTP, dispatch through the Dial seam), where one is
// killed mid-shard and stops heartbeating (SIGKILL), and one joins late
// — mid-round — triggered by the first dispatch. The event stream must
// show the late join, the heartbeat-timeout eviction and the failure,
// and the merged report must still be byte-identical to the
// single-process run.
func TestFleetChurnGoldenEvents(t *testing.T) {
	sp := testSpec()
	want := single(t, sp)

	daemonCtx, stopDaemons := context.WithCancel(context.Background())
	defer stopDaemons()
	bCtx, killB := context.WithCancel(daemonCtx)
	defer killB()

	// slow runs the job for real after a delay, so the round outlives
	// the eviction TTL and churn happens mid-round, not between tests.
	slow := func(d time.Duration) func(int, context.Context, scenario.Job) (*report.Report, error) {
		return func(_ int, ctx context.Context, job scenario.Job) (*report.Report, error) {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(d):
			}
			return scenario.RunJob(ctx, job)
		}
	}
	fakes := map[string]Transport{
		"http://a": &fakeTransport{label: "steady", behave: slow(30 * time.Millisecond)},
		"http://b": &fakeTransport{label: "doomed", behave: func(int, context.Context, scenario.Job) (*report.Report, error) {
			killB() // the process dies: heartbeats stop, no result comes back
			return nil, errors.New("worker killed mid-shard")
		}},
		"http://c": &fakeTransport{label: "late", behave: slow(30 * time.Millisecond)},
	}
	reg := NewRegistry(RegistryOptions{
		Heartbeat: 5 * time.Millisecond,
		TTL:       25 * time.Millisecond,
		Dial: func(c Capabilities) (Transport, error) {
			tr, ok := fakes[c.Addr]
			if !ok {
				return nil, fmt.Errorf("unknown test worker %q", c.Addr)
			}
			return tr, nil
		},
	})
	defer reg.Close()
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	var wg sync.WaitGroup
	defer func() { stopDaemons(); wg.Wait() }()
	startDaemon := func(ctx context.Context, addr string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			RunDaemon(ctx, DaemonOptions{Registry: srv.URL, Advertise: addr}) //nolint:errcheck // exits on ctx cancel
		}()
	}
	startDaemon(daemonCtx, "http://a")
	startDaemon(bCtx, "http://b")
	waitCtx, waitCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer waitCancel()
	if err := reg.WaitFor(waitCtx, 2); err != nil {
		t.Fatal(err)
	}

	log := &eventLog{}
	var lateOnce sync.Once
	got, err := RunFleet(context.Background(), scenario.Job{Spec: sp}, reg, Options{
		Progress: func(e Event) {
			log.add(e)
			if e.Kind == EventDispatch {
				lateOnce.Do(func() { startDaemon(daemonCtx, "http://c") })
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if norm(t, got) != norm(t, want) {
		t.Fatal("merge under join/kill churn differs from single-process report")
	}
	if countFor(log, EventWorkerJoin, "late") == 0 {
		t.Fatal("late worker never joined the dispatch pool mid-campaign")
	}
	if log.count(EventWorkerLeft) == 0 {
		t.Fatal("killed worker was never evicted from the membership")
	}
	if log.count(EventFailure)+log.count(EventWorkerDead) == 0 {
		t.Fatal("mid-shard kill left no failure events")
	}
}

// TestFleetAdaptiveLateJoin runs the adaptive (SE-targeted) variant:
// a second worker registers between rounds, is admitted by the next
// round's membership sync, receives dispatches, and the adaptively
// stopped report is still bit-identical.
func TestFleetAdaptiveLateJoin(t *testing.T) {
	sp := adaptiveSpec()
	want := single(t, sp)

	fakes := map[string]Transport{
		"http://first": &fakeTransport{label: "first"},
		"http://late":  &fakeTransport{label: "late"},
	}
	reg := NewRegistry(RegistryOptions{
		Heartbeat: 5 * time.Millisecond,
		TTL:       10 * time.Second, // no evictions in this test
		Dial: func(c Capabilities) (Transport, error) {
			tr, ok := fakes[c.Addr]
			if !ok {
				return nil, fmt.Errorf("unknown test worker %q", c.Addr)
			}
			return tr, nil
		},
	})
	defer reg.Close()
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	daemonCtx, stopDaemons := context.WithCancel(context.Background())
	defer stopDaemons()
	var wg sync.WaitGroup
	defer func() { stopDaemons(); wg.Wait() }()
	startDaemon := func(addr string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			RunDaemon(daemonCtx, DaemonOptions{Registry: srv.URL, Advertise: addr}) //nolint:errcheck // exits on ctx cancel
		}()
	}
	startDaemon("http://first")
	waitCtx, waitCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer waitCancel()
	if err := reg.WaitFor(waitCtx, 1); err != nil {
		t.Fatal(err)
	}

	log := &eventLog{}
	var lateOnce sync.Once
	got, err := RunFleet(context.Background(), scenario.Job{Spec: sp}, reg, Options{
		Progress: func(e Event) {
			log.add(e)
			if e.Kind == EventRound {
				// Between rounds: register the second worker and block the
				// driving goroutine until the registry admitted it, so the
				// next round's sync deterministically sees the join.
				lateOnce.Do(func() {
					startDaemon("http://late")
					reg.WaitFor(waitCtx, 2) //nolint:errcheck // the join assertion below catches a miss
				})
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if norm(t, got) != norm(t, want) {
		t.Fatal("adaptive merge with a late joiner differs from single-process report")
	}
	if log.count(EventRound) < 2 {
		t.Fatalf("adaptive churn ran %d rounds, want >= 2", log.count(EventRound))
	}
	if countFor(log, EventWorkerJoin, "late") == 0 {
		t.Fatal("late worker never joined")
	}
	if countFor(log, EventDispatch, "late") == 0 {
		t.Fatal("late worker joined but was never dispatched to")
	}
}

// Resume continues a campaign from its store journal, in the shape the
// crash-recovery tests call it: the journal is the only checkpoint, so
// from must be nil, and RunFleet replays the journal itself.
func Resume(ctx context.Context, job scenario.Job, from *report.Report, fleet Fleet, opts Options) (*report.Report, error) {
	if from != nil {
		return nil, errors.New("coordinator: a campaign continues from its journal, not from a report")
	}
	return RunFleet(ctx, job, fleet, opts)
}

// TestResumeFleetFromCheckpoint continues a cancelled campaign from its
// journal: the first run's worker finishes one shard and hangs on the
// next until the campaign is cancelled; a re-run on the same store
// dispatches only the runs that shard did not cover, and the merged
// report is bit-identical to the uninterrupted run. A campaign of
// another experiment on the same store banks nothing.
func TestResumeFleetFromCheckpoint(t *testing.T) {
	st, err := store.Open(t.TempDir() + "/artifacts")
	if err != nil {
		t.Fatal(err)
	}
	sp := testSpec()
	want := single(t, sp)
	once := &fakeTransport{label: "once", behave: func(call int, ctx context.Context, job scenario.Job) (*report.Report, error) {
		if call == 0 {
			return scenario.RunJob(ctx, job)
		}
		<-ctx.Done()
		return nil, ctx.Err()
	}}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var covered []engine.Shard
	_, err = RunFleet(ctx, scenario.Job{Spec: sp}, StaticOf(once), Options{Store: st, Progress: func(e Event) {
		if e.Kind == EventResult {
			covered = append(covered, e.Shard)
			cancel()
		}
	}})
	if !errors.Is(err, context.Canceled) || len(covered) != 1 {
		t.Fatalf("interrupted campaign: err %v, %d shards finished, want context.Canceled after 1", err, len(covered))
	}

	log := &eventLog{}
	got, err := RunFleet(context.Background(), scenario.Job{Spec: sp},
		StaticOf(InProcessFleet(2)...), Options{Store: st, Progress: log.add})
	if err != nil {
		t.Fatal(err)
	}
	if norm(t, got) != norm(t, want) {
		t.Fatal("re-run campaign differs from uninterrupted single-process report")
	}
	log.mu.Lock()
	for _, e := range log.events {
		if e.Kind == EventDispatch && e.Shard.Start < covered[0].End && covered[0].Start < e.Shard.End {
			t.Fatalf("re-run re-dispatched covered runs: %s (journaled %s)", e.Shard, covered[0])
		}
	}
	log.mu.Unlock()
	if log.count(EventBanked) != 1 || log.count(EventDispatch) == 0 {
		t.Fatalf("re-run banked %d records and dispatched %d shards, want 1 and the remainder",
			log.count(EventBanked), log.count(EventDispatch))
	}

	foreign := sp
	foreign.Seed = 8
	flog := &eventLog{}
	other, err := RunFleet(context.Background(), scenario.Job{Spec: foreign},
		StaticOf(InProcessFleet(1)...), Options{Store: st, Progress: flog.add})
	if err != nil {
		t.Fatal(err)
	}
	if n := flog.count(EventBanked); n != 0 {
		t.Fatalf("a campaign of another experiment banked %d records", n)
	}
	if norm(t, other) != norm(t, single(t, foreign)) {
		t.Fatal("foreign campaign differs from its single-process report")
	}
}

// TestResumeFleetFromBankedCampaign is the coordinator-crash path: an
// adaptive campaign is cancelled mid-flight, and Resume(from=nil) picks
// up the campaign checkpoint the store banked after the last completed
// round — re-dispatching only uncovered runs and finishing bit-identical.
func TestResumeFleetFromBankedCampaign(t *testing.T) {
	st, err := store.Open(t.TempDir() + "/artifacts")
	if err != nil {
		t.Fatal(err)
	}
	sp := adaptiveSpec()
	want := single(t, sp)
	fleet := StaticOf(InProcessFleet(2)...)

	cctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	covered := 0
	var once sync.Once
	_, err = RunFleet(cctx, scenario.Job{Spec: sp}, fleet, Options{
		Store: st,
		Progress: func(e Event) {
			if e.Kind == EventRound {
				// The checkpoint for this round is already banked when the
				// event fires; kill the coordinator here.
				once.Do(func() { covered = e.Round.Covered; cancel() })
			}
		},
	})
	if err == nil {
		t.Fatal("cancelled campaign reported success; the crash never happened")
	}
	if covered <= 0 {
		t.Fatal("no round completed before the simulated coordinator crash")
	}

	rlog := &eventLog{}
	got, err := Resume(context.Background(), scenario.Job{Spec: sp}, nil, fleet,
		Options{Store: st, Progress: rlog.add})
	if err != nil {
		t.Fatal(err)
	}
	if norm(t, got) != norm(t, want) {
		t.Fatal("campaign resumed from the banked checkpoint differs from the uninterrupted run")
	}
	rlog.mu.Lock()
	for _, e := range rlog.events {
		if e.Kind == EventDispatch && e.Shard.Start < covered {
			t.Fatalf("resume re-dispatched covered runs %s (checkpoint covered %d)", e.Shard, covered)
		}
	}
	rlog.mu.Unlock()

	// A finished campaign's checkpoint resolves a repeat Resume with zero
	// dispatches: the banked report already covers everything.
	zlog := &eventLog{}
	again, err := Resume(context.Background(), scenario.Job{Spec: sp}, nil, fleet,
		Options{Store: st, Progress: zlog.add})
	if err != nil {
		t.Fatal(err)
	}
	if norm(t, again) != norm(t, want) {
		t.Fatal("second resume differs")
	}
	if n := zlog.count(EventDispatch); n != 0 {
		t.Fatalf("finished campaign re-dispatched %d shards, want 0", n)
	}
}

// TestFleetWarmTraceCampaign is the payoff of persistent workers: two
// real HTTP workers register with a real registry through RunDaemon,
// then run a cold trace campaign (the TraceLab is built) and a warm one
// (same model seed, different run seed: the lab is reused, the shard
// results are not). The warm campaign must run zero TraceLab builds and
// cost at most half the cold one, and both merged reports must be
// bit-identical to the single-process run. The workers share this
// process's caches, so builds are counted once per campaign, and the
// cold campaign starts from an empty lab cache, as a freshly started
// worker process does.
func TestFleetWarmTraceCampaign(t *testing.T) {
	prev := store.Default()
	store.SetDefault(nil) // neither shard banking nor a stored lab may short-cut a campaign
	t.Cleanup(func() { store.SetDefault(prev) })
	scenario.ResetTraceLabCache()
	t.Cleanup(scenario.ResetTraceLabCache)

	reg := NewRegistry(RegistryOptions{Heartbeat: 200 * time.Millisecond})
	defer reg.Close()
	regSrv := httptest.NewServer(reg.Handler())
	defer regSrv.Close()

	daemonCtx, stopDaemons := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	defer func() { stopDaemons(); wg.Wait() }()
	for i := 0; i < 2; i++ {
		worker := httptest.NewServer(Handler(daemonCtx))
		defer worker.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			RunDaemon(daemonCtx, DaemonOptions{Registry: regSrv.URL, Advertise: worker.URL}) //nolint:errcheck // exits on ctx cancel
		}()
	}
	waitCtx, waitCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer waitCancel()
	if err := reg.WaitFor(waitCtx, 2); err != nil {
		t.Fatal(err)
	}

	sp := scenario.Spec{
		Name: "warm-fleet", Kind: "trace", Strategy: "MO", NumChaffs: 1,
		Nodes: 40, Horizon: 30, Runs: 4, ModelSeed: 11,
	}
	campaign := func(runSeed int64) (*report.Report, time.Duration, int) {
		t.Helper()
		s := sp
		s.Seed = runSeed
		builds := scenario.TraceLabBuilds()
		begin := time.Now()
		rep, err := RunFleet(context.Background(), scenario.Job{Spec: s}, reg, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return rep, time.Since(begin), scenario.TraceLabBuilds() - builds
	}
	coldRep, cold, coldBuilds := campaign(1)
	warmRep, warm, warmBuilds := campaign(2)
	t.Logf("cold %v (%d lab builds), warm %v (%d builds), %.1fx", cold, coldBuilds, warm, warmBuilds, float64(cold)/float64(warm))

	if coldBuilds == 0 {
		t.Fatal("cold campaign built no TraceLab; the warm comparison is vacuous")
	}
	if warmBuilds != 0 {
		t.Fatalf("warm campaign ran %d TraceLab builds, want 0 (persistent workers lost their lab)", warmBuilds)
	}
	if warm*2 > cold {
		t.Fatalf("warm campaign %v is not 2x cheaper than cold %v", warm, cold)
	}
	for _, c := range []struct {
		rep     *report.Report
		runSeed int64
	}{{coldRep, 1}, {warmRep, 2}} {
		s := sp
		s.Seed = c.runSeed
		if norm(t, c.rep) != norm(t, single(t, s)) {
			t.Fatalf("fleet campaign with run seed %d differs from the single-process run", c.runSeed)
		}
	}
}
