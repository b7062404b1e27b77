package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"

	"chaffmec/internal/coordinator"
	"chaffmec/internal/report"
)

// readHeaderTimeout bounds how long the worker and registry servers
// wait for a request's headers, so a stalled client cannot pin a
// connection. Bodies and responses stay unbounded in time: a shard
// legitimately runs for minutes.
const readHeaderTimeout = 10 * time.Second

// serveMain is `experiments -serve ADDR`: a long-lived HTTP worker
// (POST /v1/run, GET /v1/healthz). SIGTERM drains it: in-flight shards
// abort at the next chunk boundary and respond with their checkpointed
// prefix (206), then the server shuts down.
func serveMain(ctx context.Context, addr string) error {
	srv := &http.Server{Addr: addr, Handler: coordinator.Handler(ctx), ReadHeaderTimeout: readHeaderTimeout}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "experiments: worker serving on %s\n", addr)
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		sctx, stop := context.WithTimeout(context.Background(), 5*time.Second)
		defer stop()
		return srv.Shutdown(sctx)
	}
}

// daemonMain is `experiments -worker-daemon REGISTRY`: the persistent
// half of the elastic fleet. The worker listens for dispatches (on
// -serve ADDR when given, else an ephemeral localhost port), registers
// with the coordinator's registry under its advertised URL and
// capacity weight, heartbeats for its lease, and drains on SIGTERM
// exactly like -serve. A permanently refused registration (HTTP 409: a
// foreign rng stream version or GOARCH) is fatal; a briefly unreachable
// registry is retried with backoff.
func daemonMain(ctx context.Context, registryURL, listenAddr, advertise string, weight float64) error {
	if listenAddr == "" {
		listenAddr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return err
	}
	if advertise == "" {
		advertise = "http://" + ln.Addr().String()
	}
	srv := &http.Server{Handler: coordinator.Handler(ctx), ReadHeaderTimeout: readHeaderTimeout}
	errc := make(chan error, 2)
	go func() { errc <- srv.Serve(ln) }()
	go func() {
		errc <- coordinator.RunDaemon(ctx, coordinator.DaemonOptions{
			Registry: registryURL, Advertise: advertise, Weight: weight,
		})
	}()
	fmt.Fprintf(os.Stderr, "experiments: worker %s registering with %s\n", advertise, registryURL)
	select {
	case err = <-errc:
	case <-ctx.Done():
		err = nil
	}
	sctx, stop := context.WithTimeout(context.Background(), 5*time.Second)
	defer stop()
	if serr := srv.Shutdown(sctx); err == nil && serr != nil {
		err = serr
	}
	if errors.Is(err, http.ErrServerClosed) || errors.Is(err, context.Canceled) {
		err = nil
	}
	return err
}

// registryFleet is the coordinator side of the elastic fleet: serve
// the registration API on addr, call spawn (when non-nil) with the
// registry's base URL to start local workers, wait until fleetMin
// workers hold leases, and hand the live registry to the dispatcher.
// The returned shutdown stops the HTTP listener and the eviction loop.
func registryFleet(ctx context.Context, addr string, fleetMin int, spawn func(registryURL string) error) (coordinator.Fleet, func(), error) {
	if fleetMin < 1 {
		return nil, nil, fmt.Errorf("-fleet-min %d: need at least one worker to wait for", fleetMin)
	}
	reg := coordinator.NewRegistry(coordinator.RegistryOptions{})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		reg.Close()
		return nil, nil, err
	}
	srv := &http.Server{Handler: reg.Handler(), ReadHeaderTimeout: readHeaderTimeout}
	go srv.Serve(ln) //nolint:errcheck // closed by shutdown below
	shutdown := func() {
		sctx, stop := context.WithTimeout(context.Background(), 5*time.Second)
		defer stop()
		srv.Shutdown(sctx) //nolint:errcheck // exiting anyway
		reg.Close()
	}
	url := "http://" + ln.Addr().String()
	if spawn != nil {
		if err := spawn(url); err != nil {
			shutdown()
			return nil, nil, err
		}
	}
	fmt.Fprintf(os.Stderr, "experiments: registry on %s, waiting for %d worker(s)\n", url, fleetMin)
	if err := reg.WaitFor(ctx, fleetMin); err != nil {
		shutdown()
		return nil, nil, fmt.Errorf("waiting for %d registered workers: %w", fleetMin, err)
	}
	return reg, shutdown, nil
}

// spawnWorkers is -workers n: it starts n children of this binary as
// -worker-daemon against a registry on a loopback port, waits until all
// n hold leases, and freezes them into a static fleet — fixed
// membership, so a fleet whose workers all die fails fast instead of
// waiting for a join. Child crashWorker (-1: none) runs with
// EnvCrash=exit, crashing mid-shard on its first dispatch. The returned
// stop SIGTERMs and reaps every child, then shuts the registry down; it
// must run on every exit path.
func spawnWorkers(ctx context.Context, n, crashWorker int) (coordinator.Fleet, func(), error) {
	if crashWorker >= n {
		return nil, nil, fmt.Errorf("-crash-worker %d: fleet has %d workers", crashWorker, n)
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, fmt.Errorf("resolving the worker binary: %w", err)
	}
	// A child that exits before registering would leave the registration
	// wait hanging: any exit cancels the wait.
	waitCtx, cancelWait := context.WithCancel(ctx)
	defer cancelWait()
	var children []*exec.Cmd
	exited := make(chan struct{}, n)
	stopChildren := func() {
		for _, c := range children {
			if c.Process.Signal(syscall.SIGTERM) != nil {
				c.Process.Kill() //nolint:errcheck // no SIGTERM on this platform, or it has exited already
			}
		}
		for range children {
			<-exited
		}
	}
	spawn := func(registryURL string) error {
		for i := 0; i < n; i++ {
			c := exec.Command(exe, "-worker-daemon", registryURL)
			c.Stderr = os.Stderr
			if i == crashWorker {
				c.Env = append(os.Environ(), coordinator.EnvCrash+"=exit")
			}
			if err := c.Start(); err != nil {
				return fmt.Errorf("starting worker %d: %w", i, err)
			}
			children = append(children, c)
			go func() {
				c.Wait() //nolint:errcheck // a crashed worker is the fleet's to handle
				cancelWait()
				exited <- struct{}{}
			}()
		}
		return nil
	}
	fleet, shutdown, err := registryFleet(waitCtx, "127.0.0.1:0", n, spawn)
	if err != nil {
		stopChildren()
		if ctx.Err() == nil && waitCtx.Err() != nil {
			err = fmt.Errorf("a worker process exited before registering: %w", err)
		}
		return nil, nil, err
	}
	return coordinator.Static(fleet.Members()...), func() {
		stopChildren()
		shutdown()
	}, nil
}

// connectFleet is -connect: a static fleet of the listed -serve workers.
func connectFleet(connect string) (coordinator.Fleet, error) {
	var urls []string
	for _, u := range strings.Split(connect, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	if len(urls) == 0 {
		return nil, fmt.Errorf("-connect %q names no worker URLs", connect)
	}
	return coordinator.StaticOf(coordinator.HTTPFleet(urls...)...), nil
}

// distributedFlagErr rejects the flag combinations distribution cannot
// honor: the fleet selectors are mutually exclusive, and the
// coordinator owns shard planning and partial merging.
func distributedFlagErr(workers int, connect, registry, shardArg string, merge bool, scenFile string) error {
	selected := 0
	for _, on := range []bool{workers > 0, connect != "", registry != ""} {
		if on {
			selected++
		}
	}
	switch {
	case selected > 1:
		return fmt.Errorf("-workers (local worker daemons), -connect (fixed remote URLs) and -registry (elastic registered fleet) are mutually exclusive; pick one")
	case scenFile == "":
		return fmt.Errorf("-workers/-connect/-registry need -scenario")
	case shardArg != "":
		return fmt.Errorf("-workers/-connect/-registry cannot combine with -shard (the coordinator plans the shards)")
	case merge:
		return fmt.Errorf("-workers/-connect/-registry cannot combine with -merge (the coordinator merges its own partials)")
	}
	return nil
}

// campaignProgress logs one scenario's coordinator events on stderr —
// dispatches stay quiet, everything an operator acts on (completed
// rounds with runs done and current-vs-target SE, retries, dead
// workers, store hits) is printed — and returns a wireTally summed over
// every result for the end-of-job wire summary. joined holds the
// workers whose join is already printed, shared across the process's
// campaigns: each campaign re-admits the whole fleet, but a worker's
// join is printed once, and again only after it left.
func campaignProgress(name string, joined map[string]bool) (func(coordinator.Event), *wireTally) {
	tally := &wireTally{}
	return func(e coordinator.Event) {
		switch e.Kind {
		case coordinator.EventRound:
			r := e.Round
			status := "continuing"
			if r.Done {
				status = "done"
			}
			if math.IsNaN(r.SE) || r.Target <= 0 {
				fmt.Fprintf(os.Stderr, "%-30s round [%d,%d): %d runs (%s)\n",
					name, r.Start, r.End, r.Covered, status)
				return
			}
			fmt.Fprintf(os.Stderr, "%-30s round [%d,%d): %d runs, se %.4g vs target %.4g (%s)\n",
				name, r.Start, r.End, r.Covered, r.SE, r.Target, status)
		case coordinator.EventResult, coordinator.EventPartial:
			tally.add(e.Wire)
			if e.Kind == coordinator.EventPartial {
				fmt.Fprintf(os.Stderr, "%-30s shard %s: %s died mid-shard, banked its prefix (%v)\n",
					name, e.Shard, e.Worker, e.Err)
			}
		case coordinator.EventBanked:
			tally.banked++
			fmt.Fprintf(os.Stderr, "%-30s shard %s: served from the artifact store\n", name, e.Shard)
		case coordinator.EventFailure:
			fmt.Fprintf(os.Stderr, "%-30s shard %s: %s failed, retrying elsewhere (%v)\n",
				name, e.Shard, e.Worker, e.Err)
		case coordinator.EventWorkerDead:
			fmt.Fprintf(os.Stderr, "%-30s worker %s removed from the fleet (%v)\n", name, e.Worker, e.Err)
		case coordinator.EventWorkerJoin:
			if !joined[e.Worker] {
				joined[e.Worker] = true
				fmt.Fprintf(os.Stderr, "%-30s worker %s joined the fleet\n", name, e.Worker)
			}
		case coordinator.EventWorkerLeft:
			delete(joined, e.Worker)
			fmt.Fprintf(os.Stderr, "%-30s worker %s left the fleet\n", name, e.Worker)
		}
	}, tally
}

// wireTally sums the fleet's wire traffic across one job's dispatches.
type wireTally struct {
	sent, received int64
	results        int
	banked         int
	encoding       report.Encoding
}

func (t *wireTally) add(w coordinator.WireStats) {
	t.sent += w.Sent
	t.received += w.Received
	t.results++
	if w.Encoding != "" {
		t.encoding = w.Encoding
	}
}

// summary renders the job's wire line, e.g.
// "wire: 12 results over binary+gzip, 18.3 KB sent, 9.1 KB received, 4 shards banked".
// An in-process campaign that banked nothing has no line.
func (t *wireTally) summary(name string) {
	if t.sent == 0 && t.received == 0 && t.banked == 0 {
		return
	}
	enc := t.encoding
	if enc == "" {
		enc = "in-process"
	}
	fmt.Fprintf(os.Stderr, "%-30s wire: %d results over %s, %.1f KB sent, %.1f KB received, %d shards banked\n",
		name, t.results, enc, float64(t.sent)/1024, float64(t.received)/1024, t.banked)
}
