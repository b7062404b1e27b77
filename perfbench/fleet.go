package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"chaffmec"
	"chaffmec/internal/coordinator"
	"chaffmec/internal/rng"
	"chaffmec/internal/scenario"
	"chaffmec/internal/tune"
)

// The fleet-trace campaign: the paper's 174-node trace study, one
// protected user with one MO chaff, 1000 runs over two loopback HTTP
// workers served from this process.
const (
	// fleetModelSeed fixes the TraceLab: this seed keeps 154 of the 174
	// nodes active over 1203 cells, the paper's shape.
	fleetModelSeed = 12
	fleetNodes     = 174
	fleetRuns      = 1000
	fleetWorkers   = 2
)

// fleetWorkload runs kind "trace" through NewFleet(...).Run: the
// coordinator splits each campaign into shards, dispatches them over
// HTTP to two worker handlers, and merges the shard reports.
type fleetWorkload struct {
	seed int64  // campaign k runs with run seed rng.Derive(seed, k)
	dir  string // fresh stores and report files live here
	tr   *tracer

	workerCtx    context.Context
	stopWorkers  context.CancelFunc
	servers      []*http.Server
	serving      sync.WaitGroup
	client       *http.Client
	transports   []chaffmec.WorkerTransport
	timed        []*timedTransport // the traced run's client-side wrappers
	counts       eventCounts
	lab          *chaffmec.TraceLab
	block        int
	campaignRoot int // the traced campaign's span, -1 outside one
}

// newFleet builds the benchmark's own copy of the TraceLab, outside the
// timed set-ups: the traced replay runs on it, and it keys the width
// lookup.
func newFleet(seed int64, dir string, tr *tracer) (*fleetWorkload, error) {
	w := &fleetWorkload{seed: seed, dir: dir, tr: tr, campaignRoot: -1}
	lab, err := chaffmec.BuildTraceLab(w.labConfig())
	if err != nil {
		return nil, err
	}
	w.lab = lab
	return w, nil
}

func (w *fleetWorkload) spec(k int) chaffmec.ScenarioSpec {
	return chaffmec.ScenarioSpec{
		Kind:      "trace",
		Nodes:     fleetNodes,
		ModelSeed: fleetModelSeed,
		Strategy:  "MO",
		NumChaffs: 1,
		Horizon:   100,
		Runs:      fleetRuns,
		Workers:   1,
		Seed:      rng.Derive(w.seed, int64(k)),
	}
}

func (w *fleetWorkload) runsPerCampaign() int { return fleetRuns }
func (w *fleetWorkload) tuneBlock() int       { return w.block }

// setup starts the loopback workers and warms, from cold, what the first
// campaign pays and later ones do not: the workers' TraceLab and the
// block calibration for the trace shape, both built by a two-run job
// through the same code path the workers take.
func (w *fleetWorkload) setup() error {
	w.close()
	tune.ResetForTest()
	scenario.ResetTraceLabCache()
	w.workerCtx, w.stopWorkers = context.WithCancel(context.Background())
	w.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	w.transports, w.timed = nil, nil
	for i := 0; i < fleetWorkers; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("fleet: listening: %w", err)
		}
		h := chaffmec.WorkerHandler(w.workerCtx)
		if w.tr != nil {
			h = timedHandler(w.tr, "handler/"+strconv.Itoa(i), h)
		}
		srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
		w.servers = append(w.servers, srv)
		w.serving.Add(1)
		go func() {
			defer w.serving.Done()
			srv.Serve(ln) //nolint:errcheck // returns http.ErrServerClosed on close
		}()
		url := "http://" + ln.Addr().String()
		var t chaffmec.WorkerTransport = &coordinator.HTTP{Label: "worker-" + strconv.Itoa(i), URL: url, Client: w.client}
		if w.tr != nil {
			tt := &timedTransport{inner: t.(*coordinator.HTTP), label: "dispatch/" + strconv.Itoa(i), w: w}
			w.timed = append(w.timed, tt)
			t = tt
		}
		w.transports = append(w.transports, t)
	}
	warm := w.spec(-1)
	warm.Runs = 2
	if _, err := chaffmec.RunJob(w.workerCtx, chaffmec.Job{Spec: warm}); err != nil {
		return err
	}
	// The job calibrated this shape; the benchmark's own lab has the same
	// chain size, so this reads the cached width.
	w.block = tune.BlockSize(w.lab.Chain, len(w.lab.Trajectories)+1, w.lab.Horizon)
	return nil
}

func (w *fleetWorkload) labConfig() chaffmec.TraceConfig {
	return chaffmec.TraceConfig{Seed: fleetModelSeed, Nodes: fleetNodes, Minutes: 100}
}

func (w *fleetWorkload) campaign(ctx context.Context, k int) (*chaffmec.Report, error) {
	st, err := chaffmec.OpenStore(filepath.Join(w.dir, "store", strconv.Itoa(k)))
	if err != nil {
		return nil, err
	}
	w.counts.reset()
	fleet, err := chaffmec.NewFleet(
		chaffmec.WithWorkers(w.transports...),
		chaffmec.WithStore(st),
		chaffmec.WithProgress(w.counts.observe),
	)
	if err != nil {
		return nil, err
	}
	return fleet.Run(ctx, chaffmec.Job{Spec: w.spec(k)})
}

// check byte-compares campaign k's merged report with the single-process
// RunJob of the same Job.
func (w *fleetWorkload) check(ctx context.Context, k int, rep *chaffmec.Report) (bool, error) {
	return w.matchesRunJob(ctx, k, rep), nil
}

func (w *fleetWorkload) matchesRunJob(ctx context.Context, k int, rep *chaffmec.Report) bool {
	if rep == nil {
		return false
	}
	ref, err := chaffmec.RunJob(ctx, chaffmec.Job{Spec: w.spec(k)})
	if err != nil {
		return false
	}
	a, errA := canonical(rep)
	b, errB := canonical(ref)
	return errA == nil && errB == nil && string(a) == string(b)
}

// close stops the workers and waits for their servers to exit.
func (w *fleetWorkload) close() {
	for _, srv := range w.servers {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		srv.Shutdown(ctx) //nolint:errcheck // a timeout leaves Close below to drop the rest
		cancel()
		srv.Close()
	}
	w.serving.Wait()
	w.servers = nil
	if w.stopWorkers != nil {
		w.stopWorkers()
	}
	if w.client != nil {
		w.client.CloseIdleConnections()
	}
}
