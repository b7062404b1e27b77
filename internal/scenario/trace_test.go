package scenario

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"chaffmec/internal/chaff"
	"chaffmec/internal/detect"
	"chaffmec/internal/engine"
	"chaffmec/internal/figures"
	"chaffmec/internal/markov"
	"chaffmec/internal/report"
	"chaffmec/internal/rng"
	"chaffmec/internal/store"
)

// stubLabBuilder swaps the cold-build seam for a counting stub and
// resets the shared cache around the test — the LRU tests must not pay
// for (or be warmed by) real trace pipelines.
func stubLabBuilder(t *testing.T, build func(figures.TraceConfig) (*figures.TraceLab, error)) *atomic.Int64 {
	t.Helper()
	var calls atomic.Int64
	orig := buildTraceLab
	buildTraceLab = func(cfg figures.TraceConfig) (*figures.TraceLab, error) {
		calls.Add(1)
		return build(cfg)
	}
	ResetTraceLabCache()
	t.Cleanup(func() {
		buildTraceLab = orig
		ResetTraceLabCache()
	})
	return &calls
}

// sharedTraceLab is the lab of the shared cache's entry for cfg.
func sharedTraceLab(cfg figures.TraceConfig) (*figures.TraceLab, error) {
	e, err := sharedTraceEntry(cfg)
	if err != nil {
		return nil, err
	}
	return e.lab, nil
}

func labCfg(seed int64) figures.TraceConfig {
	return figures.TraceConfig{Seed: seed, Nodes: 10, Minutes: 5}
}

func TestSharedTraceLabCachesAndEvictsLRU(t *testing.T) {
	calls := stubLabBuilder(t, func(cfg figures.TraceConfig) (*figures.TraceLab, error) {
		return &figures.TraceLab{Horizon: int(cfg.Seed)}, nil
	})

	// Fill the cache to capacity; each distinct config builds once.
	for seed := int64(1); seed <= traceLabCacheCap; seed++ {
		for i := 0; i < 2; i++ {
			lab, err := sharedTraceLab(labCfg(seed))
			if err != nil {
				t.Fatal(err)
			}
			if lab.Horizon != int(seed) {
				t.Fatalf("seed %d got lab %d", seed, lab.Horizon)
			}
		}
	}
	if got := calls.Load(); got != traceLabCacheCap {
		t.Fatalf("%d builds for %d configs", got, traceLabCacheCap)
	}

	// Touch config 1 so config 2 is now the least recently used, then
	// insert a new config: 2 must be evicted, 1 retained.
	if _, err := sharedTraceLab(labCfg(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := sharedTraceLab(labCfg(traceLabCacheCap + 1)); err != nil {
		t.Fatal(err)
	}
	before := calls.Load()
	if _, err := sharedTraceLab(labCfg(1)); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != before {
		t.Fatal("recently used config was evicted")
	}
	if _, err := sharedTraceLab(labCfg(2)); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != before+1 {
		t.Fatal("least recently used config was not evicted")
	}
}

func TestSharedTraceLabSingleFlight(t *testing.T) {
	release := make(chan struct{})
	calls := stubLabBuilder(t, func(cfg figures.TraceConfig) (*figures.TraceLab, error) {
		<-release // hold every concurrent caller at the build
		return &figures.TraceLab{Horizon: 7}, nil
	})

	const waiters = 16
	var wg sync.WaitGroup
	labs := make([]*figures.TraceLab, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lab, err := sharedTraceLab(labCfg(1))
			if err != nil {
				t.Error(err)
				return
			}
			labs[i] = lab
		}(i)
	}
	close(release)
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Fatalf("%d builds for %d concurrent callers of one config", got, waiters)
	}
	for i := 1; i < waiters; i++ {
		if labs[i] != labs[0] {
			t.Fatal("concurrent callers received different lab instances")
		}
	}
}

func TestSharedTraceLabDoesNotCacheErrors(t *testing.T) {
	fail := true
	boom := errors.New("boom")
	calls := stubLabBuilder(t, func(cfg figures.TraceConfig) (*figures.TraceLab, error) {
		if fail {
			return nil, boom
		}
		return &figures.TraceLab{Horizon: 9}, nil
	})

	if _, err := sharedTraceLab(labCfg(1)); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// The failure must not be cached: the next call retries the build
	// and succeeds.
	fail = false
	lab, err := sharedTraceLab(labCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	if lab.Horizon != 9 {
		t.Fatalf("got lab %d", lab.Horizon)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("%d builds, want a retry after the failure", got)
	}
	// And the success IS cached.
	if _, err := sharedTraceLab(labCfg(1)); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("%d builds, want the success cached", got)
	}
}

// TestTraceLabStoreWarmStart is the persistence acceptance property at
// the unit level: with a warm artifact store, a fresh cache (a fresh
// process) loads the lab from disk and never runs the build pipeline;
// a corrupt artifact falls back to a rebuild.
func TestTraceLabStoreWarmStart(t *testing.T) {
	st, err := store.Open(t.TempDir() + "/artifacts")
	if err != nil {
		t.Fatal(err)
	}
	store.SetDefault(st)
	t.Cleanup(func() { store.SetDefault(nil) })

	// A real (reduced) lab: the store round-trips the encoded artifact.
	cfg := figures.TraceConfig{
		Seed: 6, Nodes: 40, Minutes: 20,
		TowerClusters: 3, TowersPerCluster: 10, BackgroundTowers: 40,
	}
	ResetTraceLabCache()
	t.Cleanup(ResetTraceLabCache)
	cold, err := sharedTraceLab(cfg)
	if err != nil {
		t.Fatal(err)
	}
	coldBuilds := TraceLabBuilds()

	ResetTraceLabCache() // simulate a fresh process
	warm, err := sharedTraceLab(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if TraceLabBuilds() != coldBuilds {
		t.Fatal("warm-store load ran the build pipeline")
	}
	if warm.Horizon != cold.Horizon || len(warm.Trajectories) != len(cold.Trajectories) {
		t.Fatal("stored lab differs from built lab")
	}

	// Corrupt the artifact: the loader must evict it and rebuild.
	key := traceLabStoreKey(cfg, runtime.GOARCH)
	if err := st.Put(storeKindTraceLab, key, []byte("corrupt")); err != nil {
		t.Fatal(err)
	}
	ResetTraceLabCache()
	if _, err := sharedTraceLab(cfg); err != nil {
		t.Fatal(err)
	}
	if TraceLabBuilds() != coldBuilds+1 {
		t.Fatal("corrupt artifact did not trigger a rebuild")
	}
	// ...and the rebuild re-persisted a good artifact.
	blob, ok, err := st.Get(storeKindTraceLab, key)
	if err != nil || !ok {
		t.Fatalf("artifact missing after rebuild: ok=%v err=%v", ok, err)
	}
	if string(blob) == "corrupt" {
		t.Fatal("corrupt artifact still in store")
	}
}

// TestTraceLabStoreKeyedByArch: a lab stored by a host of another
// GOARCH is never read — the key names the architecture that fitted
// it — and the lab this host builds instead is stored under its own.
func TestTraceLabStoreKeyedByArch(t *testing.T) {
	st, err := store.Open(t.TempDir() + "/artifacts")
	if err != nil {
		t.Fatal(err)
	}
	store.SetDefault(st)
	t.Cleanup(func() { store.SetDefault(nil) })
	cfg := figures.TraceConfig{
		Seed: 6, Nodes: 40, Minutes: 20,
		TowerClusters: 3, TowersPerCluster: 10, BackgroundTowers: 40,
	}
	lab, err := figures.BuildTraceLab(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var blob bytes.Buffer
	if err := lab.Encode(&blob); err != nil {
		t.Fatal(err)
	}
	calls := stubLabBuilder(t, func(figures.TraceConfig) (*figures.TraceLab, error) { return lab, nil })
	foreign := "arm64"
	if runtime.GOARCH == foreign {
		foreign = "amd64"
	}
	if err := st.Put(storeKindTraceLab, traceLabStoreKey(cfg, foreign), blob.Bytes()); err != nil {
		t.Fatal(err)
	}
	if _, built, err := loadOrBuildTraceLab(cfg); err != nil || !built {
		t.Fatalf("lab stored under the %s key was read on %s (built %v, err %v)", foreign, runtime.GOARCH, built, err)
	}
	if _, built, err := loadOrBuildTraceLab(cfg); err != nil || built {
		t.Fatalf("the lab built on %s was not stored under its key (built %v, err %v)", runtime.GOARCH, built, err)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("%d builds, want 1", n)
	}
}

// traceOnce is the scalar per-run trace pipeline — the fixed fleet plus
// one GenerateChaffs stream, scored by per-run prefix detection — kept as
// the reference runTrace's fleet and block kernels are tested against.
func traceOnce(lab *figures.TraceLab, strat chaff.Strategy, numChaffs int, det detect.PrefixDetector,
	user int, ws *detect.Workspace, rng *rand.Rand) ([]float64, error) {
	trs := append([]markov.Trajectory(nil), lab.Trajectories...)
	if strat != nil {
		chaffs, err := strat.GenerateChaffs(rng, lab.Trajectories[user], numChaffs)
		if err != nil {
			return nil, fmt.Errorf("scenario: trace chaffs: %w", err)
		}
		trs = append(trs, chaffs...)
	}
	dets, err := det.PrefixDetectionsWith(ws, trs)
	if err != nil {
		return nil, err
	}
	return detect.TrackingAccuracySeries(dets, trs, user)
}

// traceScalar evaluates a trace spec one run at a time through traceOnce,
// drawing run r's stream from rng.NewRun(seed, r) with no engine in
// between, and returns the tracking accumulator's snapshot.
func traceScalar(t *testing.T, sp Spec) engine.SeriesSnapshot {
	t.Helper()
	lab, err := sharedTraceLab(figures.TraceConfig{Seed: sp.Seed, Nodes: sp.Nodes, Minutes: sp.Horizon})
	if err != nil {
		t.Fatal(err)
	}
	top, _, err := lab.TopUsers(sp.TraceUser + 1)
	if err != nil {
		t.Fatal(err)
	}
	user := top[sp.TraceUser]
	var strat chaff.Strategy
	var det detect.PrefixDetector = detect.NewMLDetector(lab.Chain)
	if sp.Strategy != "" {
		if strat, err = chaff.NewByName(sp.Strategy, lab.Chain); err != nil {
			t.Fatal(err)
		}
	}
	if sp.Advanced {
		// The full Γ: the runner's capped one must give the same bits.
		// A strategy with no Γ leaves the basic detector.
		switch gamma, err := chaff.GammaByName(sp.Strategy, lab.Chain); {
		case err == nil:
			if det, err = detect.NewAdvancedDetector(lab.Chain, gamma); err != nil {
				t.Fatal(err)
			}
		case !errors.Is(err, chaff.ErrNoGamma):
			t.Fatal(err)
		}
	}
	ws := detect.GetWorkspace()
	defer ws.Release()
	track := engine.NewSeriesStatsAt(lab.Horizon, 0)
	for run := 0; run < sp.Runs; run++ {
		series, err := traceOnce(lab, strat, sp.NumChaffs, det, user, ws, rng.NewRun(sp.Seed, run))
		if err != nil {
			t.Fatal(err)
		}
		if err := track.Add(series); err != nil {
			t.Fatal(err)
		}
	}
	return track.Snapshot()
}

// TestTraceBatchMatchesScalar is the trace kind's differential test:
// runTrace's block dispatch must reproduce the scalar traceOnce pipeline
// bit for bit — chaff-free, with MO chaff, against the strategy-aware
// eavesdropper (MO's Γ, and OO's capped Γ against the oracle's full
// one), and with IM chaff (the case whose chaffs draw from the
// run streams; MO's do not) — at any worker count. Two identical ML
// chaffs tie each other, three IM chaffs crowd the tie sets, and MO at
// TraceUser 2 protects a user other than the most tracked one. The
// strategy-aware rows of Fig. 10 run here too: two robust chaffs (RMO,
// RML, ROO) recognized through their originals' Γ, and IM, which has no
// Γ and so meets the basic detector.
func TestTraceBatchMatchesScalar(t *testing.T) {
	if testing.Short() {
		t.Skip("trace lab build")
	}
	base := Spec{Kind: "trace", Nodes: 40, Horizon: 25, Runs: 24, Seed: 6}
	mo := base
	mo.Strategy, mo.NumChaffs = "MO", 1
	adv := mo
	adv.Advanced = true
	// OO's capped Γ, with the cap a max over 40 other trajectories.
	ooAdv := adv
	ooAdv.Strategy = "OO"
	im := base
	im.Strategy, im.NumChaffs = "IM", 2
	ml2 := base
	ml2.Strategy, ml2.NumChaffs = "ML", 2
	moUser2 := mo
	moUser2.TraceUser = 2
	im3 := base
	im3.Strategy, im3.NumChaffs = "IM", 3
	// Stream-free shapes beyond the ones above, each its own fixed
	// series: two advanced MO chaffs at TraceUser 1, two advanced OO
	// chaffs, and the chaff-free run at TraceUser 3.
	mo2AdvUser1 := adv
	mo2AdvUser1.NumChaffs, mo2AdvUser1.TraceUser = 2, 1
	oo2Adv := ooAdv
	oo2Adv.NumChaffs = 2
	freeUser3 := base
	freeUser3.TraceUser = 3
	specs := map[string]Spec{"chaff-free": base, "MO": mo, "MO-advanced": adv, "OO-advanced": ooAdv, "IM": im,
		"ML2": ml2, "MO-user2": moUser2, "IM3": im3,
		"MO2-advanced-user1": mo2AdvUser1, "OO2-advanced": oo2Adv, "chaff-free-user3": freeUser3}
	for _, name := range []string{"RMO", "RML", "ROO", "IM"} {
		sp := base
		sp.Strategy, sp.NumChaffs, sp.Advanced = name, 2, true
		specs[name+"2-advanced"] = sp
	}
	for name, sp := range specs {
		want := traceScalar(t, sp)
		for _, workers := range []int{1, 4} {
			sp.Workers = workers
			rep, err := runTrace(context.Background(), sp, engine.Shard{})
			if err != nil {
				t.Fatal(err)
			}
			if got := rep.Series[report.SeriesTracking]; !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, workers=%d: batch tracking snapshot differs from the scalar oracle", name, workers)
			}
		}
	}
}

// TestTraceViewOncePerLab runs one trace job as many chunk jobs, the way
// a worker runs its shard, all at once on a cold cache: the lab's fleet
// table and ranking are derived once per cache entry, not once per
// chunk, the strategy-aware eavesdropper's chunks reuse them, and the
// chunks extend to the whole job's report.
func TestTraceViewOncePerLab(t *testing.T) {
	if testing.Short() {
		t.Skip("trace lab build")
	}
	ResetTraceLabCache()
	t.Cleanup(ResetTraceLabCache)
	views := func() int {
		c := &traceLabCache
		c.Lock()
		defer c.Unlock()
		return c.views
	}
	before := views()
	sp := Spec{Kind: "trace", Nodes: 40, Horizon: 25, Runs: 48, Seed: 6, Strategy: "IM", NumChaffs: 2}
	adv := sp
	adv.Strategy, adv.NumChaffs, adv.Advanced = "MO", 1, true
	for _, sp := range []Spec{sp, adv} {
		const chunk = 4
		reps := make([]*report.Report, sp.Runs/chunk)
		var wg sync.WaitGroup
		for i := range reps {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				rep, err := RunJob(context.Background(), Job{Spec: sp, Shard: engine.Span(i*chunk, (i+1)*chunk)})
				if err != nil {
					t.Error(err)
					return
				}
				reps[i] = rep
			}(i)
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		acc := reps[0]
		if err := acc.Extend(reps[1:]...); err != nil {
			t.Fatal(err)
		}
		whole, err := RunJob(context.Background(), Job{Spec: sp})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := marshalStable(t, acc), marshalStable(t, whole); !reflect.DeepEqual(got, want) {
			t.Fatalf("advanced=%v: 12 chunks extend to\n%s\nwant the whole job's\n%s", sp.Advanced, got, want)
		}
	}
	if got := views() - before; got != 1 {
		t.Fatalf("%d fleet views derived over 26 jobs on one lab, want 1", got)
	}
}
