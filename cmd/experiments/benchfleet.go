package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
	"time"

	"chaffmec/internal/coordinator"
	"chaffmec/internal/report"
	"chaffmec/internal/rng"
	"chaffmec/internal/scenario"
	"chaffmec/internal/store"
)

// fleetBench is the BENCH_fleet.json artifact: one trace campaign fanned
// out over registered daemon workers, cold (every worker builds its
// TraceLab from scratch) and warm (same model seed, different run seed:
// the workers' in-process labs are reused, the shard results are not).
// Two properties are asserted absolutely on every run: the warm
// campaign runs zero TraceLab builds (probed via each worker's
// /v1/healthz build counter), and it is at least 2x cheaper than the
// cold one — persistent registered workers are the whole point of the
// elastic fleet, and this is the number that proves they pay off.
type fleetBench struct {
	Schema     string  `json:"schema"`
	GOARCH     string  `json:"goarch"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Stream     string  `json:"stream"`
	Workers    int     `json:"workers"`
	Nodes      int     `json:"nodes"`
	Minutes    int     `json:"minutes"`
	Runs       int     `json:"runs"`
	ColdMS     float64 `json:"cold_ms"`
	WarmMS     float64 `json:"warm_ms"`
	Speedup    float64 `json:"speedup"`
	ColdBuilds int     `json:"cold_builds"`
	WarmBuilds int     `json:"warm_builds"`
}

// benchFleetRun measures the registered-fleet benchmark and writes the
// JSON artifact. The fleet is real end to end: an in-process registry,
// two re-exec'd -worker-daemon subprocesses that register over HTTP,
// and the coordinator dispatching through the elastic Fleet interface.
func benchFleetRun(ctx context.Context, path string, seed int64) error {
	out, err := measureFleet(ctx, seed)
	if err != nil {
		return fmt.Errorf("bench-fleet: %w", err)
	}
	blob, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("bench-fleet: %d workers, trace %d nodes × %d min × %d runs\n",
		out.Workers, out.Nodes, out.Minutes, out.Runs)
	fmt.Printf("bench-fleet: cold %.0f ms (%d lab builds), warm %.0f ms (%d builds), %.2fx\n",
		out.ColdMS, out.ColdBuilds, out.WarmMS, out.WarmBuilds, out.Speedup)
	fmt.Printf("wrote %s\n", path)
	return nil
}

func measureFleet(ctx context.Context, seed int64) (*fleetBench, error) {
	// The bench must measure the workers' warm state, not the artifact
	// store: detach any ambient store so neither shard banking nor a
	// campaign checkpoint short-circuits the warm round.
	prev := store.Default()
	store.SetDefault(nil)
	defer store.SetDefault(prev)

	const workers = 2
	reg := coordinator.NewRegistry(coordinator.RegistryOptions{
		Heartbeat: 200 * time.Millisecond,
	})
	defer reg.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: reg.Handler(), ReadHeaderTimeout: readHeaderTimeout}
	go srv.Serve(ln) //nolint:errcheck // closed by the deferred shutdown
	defer func() {
		sctx, stop := context.WithTimeout(context.Background(), 5*time.Second)
		defer stop()
		srv.Shutdown(sctx) //nolint:errcheck // exiting anyway
	}()
	regURL := "http://" + ln.Addr().String()

	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	// The daemons must be cold processes with no ambient store either:
	// scrub the store env var so their labs are built, not loaded.
	var env []string
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, store.EnvStore+"=") {
			env = append(env, kv)
		}
	}
	stop := make([]func(), 0, workers)
	defer func() {
		for _, s := range stop {
			s()
		}
	}()
	for i := 0; i < workers; i++ {
		cmd := exec.Command(self, "-worker-daemon", regURL)
		cmd.Env = env
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		stop = append(stop, func() {
			cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // best-effort drain
			done := make(chan struct{})
			go func() { cmd.Wait(); close(done) }() //nolint:errcheck // exit status is irrelevant
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				cmd.Process.Kill() //nolint:errcheck
				<-done
			}
		})
	}
	waitCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := reg.WaitFor(waitCtx, workers); err != nil {
		return nil, fmt.Errorf("waiting for %d daemon workers: %w", workers, err)
	}

	out := &fleetBench{
		Schema: "chaffmec/bench-fleet/v1", GOARCH: runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0), Stream: rng.StreamVersion,
		Workers: workers, Nodes: 80, Minutes: 60, Runs: 6,
	}
	// Distinct decorrelated seeds: one model (shared by both campaigns
	// so the workers' labs stay warm), one run seed per campaign.
	modelSeed := rng.Derive(seed, 'm')
	coldSeed := rng.Derive(seed, 'c')
	warmSeed := rng.Derive(seed, 'w')
	sp := scenario.Spec{
		Name: "bench-fleet", Kind: "trace", Strategy: "MO", NumChaffs: 1,
		Nodes: out.Nodes, Horizon: out.Minutes, Runs: out.Runs,
		Seed: coldSeed, ModelSeed: modelSeed,
	}

	campaign := func(runSeed int64) (*report.Report, float64, error) {
		s := sp
		s.Seed = runSeed
		begin := time.Now()
		rep, err := coordinator.RunFleet(ctx, scenario.Job{Spec: s}, reg, coordinator.Options{})
		return rep, float64(time.Since(begin)) / float64(time.Millisecond), err
	}
	builds := func() (int, error) {
		total := 0
		for _, caps := range reg.Snapshot() {
			probed, err := coordinator.ProbeWorker(ctx, nil, caps.Addr)
			if err != nil {
				return 0, err
			}
			total += probed.TraceLabBuilds
		}
		return total, nil
	}

	coldRep, coldMS, err := campaign(coldSeed)
	if err != nil {
		return nil, fmt.Errorf("cold campaign: %w", err)
	}
	out.ColdMS = coldMS
	if out.ColdBuilds, err = builds(); err != nil {
		return nil, err
	}

	// Warm: a different run seed (fresh shard results) over the same
	// model seed (each worker's lab is already built).
	warmRep, warmMS, err := campaign(warmSeed)
	if err != nil {
		return nil, fmt.Errorf("warm campaign: %w", err)
	}
	out.WarmMS = warmMS
	after, err := builds()
	if err != nil {
		return nil, err
	}
	out.WarmBuilds = after - out.ColdBuilds
	out.Speedup = out.ColdMS / out.WarmMS

	// The merged fleet reports must be the single-process ones, byte for
	// byte (up to the wall-clock field) — churn tolerance means nothing
	// if the fan-out changed the answer.
	for _, probe := range []struct {
		rep     *report.Report
		runSeed int64
		label   string
	}{{coldRep, coldSeed, "cold"}, {warmRep, warmSeed, "warm"}} {
		s := sp
		s.Seed = probe.runSeed
		want, err := scenario.RunJob(ctx, scenario.Job{Spec: s})
		if err != nil {
			return nil, err
		}
		if !reportsEqual(probe.rep, want) {
			return nil, fmt.Errorf("%s fleet campaign is not bit-identical to the single-process run", probe.label)
		}
	}

	if out.WarmBuilds != 0 {
		return nil, fmt.Errorf("warm campaign ran %d TraceLab builds, want 0 (persistent workers lost their labs)", out.WarmBuilds)
	}
	if out.WarmMS*2 > out.ColdMS {
		return nil, fmt.Errorf("warm campaign %.0f ms is not 2x cheaper than cold %.0f ms (registered-worker reuse regressed)", out.WarmMS, out.ColdMS)
	}
	return out, nil
}

// reportsEqual compares two Reports by canonical JSON with the
// wall-clock field zeroed — the same identity the coordinator tests
// assert.
func reportsEqual(a, b *report.Report) bool {
	canon := func(r *report.Report) []byte {
		c := *r
		c.ElapsedMS = 0
		blob, err := json.Marshal(&c)
		if err != nil {
			return nil
		}
		return blob
	}
	ab, bb := canon(a), canon(b)
	return ab != nil && string(ab) == string(bb)
}
