// Quickstart: protect a mobile user with chaff services and measure how
// well a cyber eavesdropper can still track him — through the library's
// one experiment API: submit a Job (a declarative scenario spec plus an
// optional shard selector), receive a serializable Report.
//
// The walkthrough covers the execution shapes: a whole fixed job, the
// same job split into shards and merged (bit-for-bit identical), an
// ADAPTIVE job that picks its own run count — runs are added in rounds
// until the tracking series' standard error reaches a target —
// checkpoint/resume (any partial Report resumes into the exact Report
// the uninterrupted run produces), and finally the DISTRIBUTED
// coordinator: the same job fanned out over a worker fleet built with
// chaffmec.NewFleet — first a frozen in-process fleet, then the
// elastic shape, where persistent workers REGISTER with a live
// registry (announcing a dispatch URL and a capacity weight that
// skews their shard share) and the dispatcher follows the membership.
// Shards retry around failures and the merge is bit-identical either
// way. It closes with the persistence layer: the wire encodings a
// Report travels in (JSON, compact binary, binary+gzip — all decoding
// bit-identical) and the content-addressed artifact store that turns
// re-runs into cache hits. The fleets below exercise the real
// coordinator inside one process; to put hosts behind the same calls,
// see cmd/experiments:
//
//	experiments -scenario scenarios.json -workers 4        # local worker daemons
//	experiments -serve :8080                               # on worker hosts...
//	experiments -scenario scenarios.json -connect http://a:8080,http://b:8080
//	# or elastic: serve a registry and let persistent daemons come to it
//	experiments -scenario scenarios.json -registry :9000 -fleet-min 2
//	experiments -worker-daemon http://coord:9000 -weight 2 # on worker hosts
//
// Performance: everything below runs on the batched hot path — each
// engine worker samples and scores a whole block of runs at once over
// flat structure-of-arrays layouts, reusing a preallocated arena
// (detect.Workspace) so warm per-run allocations are ≈ 0. That is an
// implementation detail you never see in the results: run r's
// randomness is a pure function of (seed, r) and batching never
// changes per-run draw order, so batch and scalar paths are
// bit-for-bit identical (differential tests hold the line). See the
// README's Performance section; the end-to-end benchmark is
//
//	bash perfbench/run.sh
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"

	"chaffmec"
)

func main() {
	ctx := context.Background()

	// The user moves over 10 MEC cells following the paper's non-skewed
	// synthetic mobility model; the eavesdropper watches the user's
	// service plus one impersonating chaff for 100 slots, averaged over
	// 500 Monte-Carlo runs.
	baseline := chaffmec.ScenarioSpec{
		Kind: "single", Strategy: "IM", NumChaffs: 1,
		Horizon: 100, Runs: 500, Seed: 42,
	}
	rep, err := chaffmec.RunJob(ctx, chaffmec.Job{Spec: baseline})
	if err != nil {
		log.Fatal(err)
	}
	baseSum, err := rep.Summary()
	if err != nil {
		log.Fatal(err)
	}

	// The myopic online strategy (Algorithm 2) controls the chaff to both
	// out-weigh the user's likelihood and stay away from him. This time,
	// split the same experiment into two shards — exactly what two
	// processes (or hosts) would run — and merge the partial reports: the
	// result is bit-for-bit the single-process one.
	protected := baseline
	protected.Strategy = "MO"
	var parts []*chaffmec.Report
	for i := 0; i < 2; i++ {
		part, err := chaffmec.RunJob(ctx, chaffmec.Job{
			Spec:  protected,
			Shard: chaffmec.Shard{Index: i, Count: 2},
		})
		if err != nil {
			log.Fatal(err)
		}
		parts = append(parts, part)
	}
	merged, err := chaffmec.MergeReports(parts...)
	if err != nil {
		log.Fatal(err)
	}
	protSum, err := merged.Summary()
	if err != nil {
		log.Fatal(err)
	}

	// Eq. 11 gives the IM baseline in closed form. (Evaluate remains the
	// one-call wrapper for callers holding a custom Chain.)
	model, err := chaffmec.BuildModel(chaffmec.ModelNonSkewed, 10, 1)
	if err != nil {
		log.Fatal(err)
	}
	closed, err := chaffmec.IMAccuracy(model, 2)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("IM chaff:  tracking accuracy %.3f (Eq. 11 predicts %.3f)\n",
		baseSum.Overall, closed)
	fmt.Printf("MO chaff:  tracking accuracy %.3f (merged from %d shards, %d runs)\n",
		protSum.Overall, len(parts), protSum.Runs)
	fmt.Printf("MO final slot: %.4f (decays toward zero, Theorem V.5)\n",
		protSum.PerSlot[len(protSum.PerSlot)-1])

	// Adaptive execution: instead of guessing a run count, declare the
	// precision you need. The job runs in rounds — [0,n₁), [n₁,n₂), … —
	// and stops as soon as the tracking series' worst per-slot standard
	// error drops to the target (between MinRuns and MaxRuns).
	adaptive := protected
	adaptive.Precision = &chaffmec.ScenarioPrecision{
		TargetSE: 0.01, MinRuns: 100, MaxRuns: 10_000,
	}
	rep, err = chaffmec.RunAdaptiveJob(ctx, chaffmec.Job{Spec: adaptive},
		func(r chaffmec.AdaptiveRound) {
			fmt.Printf("  round [%d,%d): se %.4f (target %.4f)\n", r.Start, r.End, r.SE, r.Target)
		})
	if err != nil {
		log.Fatal(err)
	}
	adSum, err := rep.Summary()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("adaptive:  tracking accuracy %.3f after %d runs (SE target %.3g hit)\n",
		adSum.Overall, adSum.Runs, adaptive.Precision.TargetSE)

	// Checkpoint/restart: interrupt the same job after its first round —
	// the partial Report that comes back with the error is a well-formed
	// checkpoint (WriteReports/ReadReports ship it across processes or
	// hosts) — then resume it. The resumed Report is bit-for-bit the
	// uninterrupted one above.
	interruptCtx, cancel := context.WithCancel(ctx)
	partial, err := chaffmec.RunAdaptiveJob(interruptCtx, chaffmec.Job{Spec: adaptive},
		func(chaffmec.AdaptiveRound) { cancel() }) // "Ctrl-C" after round 1
	if partial == nil {
		log.Fatal(err)
	}
	fmt.Printf("interrupted after %d runs; resuming...\n", partial.RunCount)
	resumed, err := chaffmec.ResumeJob(ctx, chaffmec.Job{Spec: adaptive}, partial)
	if err != nil {
		log.Fatal(err)
	}
	resSum, err := resumed.Summary()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("resumed:   tracking accuracy %.6f over %d runs (uninterrupted: %.6f over %d)\n",
		resSum.Overall, resSum.Runs, adSum.Overall, adSum.Runs)

	// Distributed fan-out: NewFleet builds the worker fleet, Run fans
	// the same adaptive job out over it — every round split into
	// shards, failures and stragglers retried on other workers, merged
	// back bit-identical to the single-process Report (only the
	// wall-clock field, which sums the parts, differs).
	fleet, err := chaffmec.NewFleet(chaffmec.WithInProcessWorkers(4))
	if err != nil {
		log.Fatal(err)
	}
	dist, err := fleet.Run(ctx, chaffmec.Job{Spec: adaptive})
	if err != nil {
		log.Fatal(err)
	}
	distSum, err := dist.Summary()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("4 workers: tracking accuracy %.6f over %d runs (single-process: %.6f over %d)\n",
		distSum.Overall, distSum.Runs, adSum.Overall, adSum.Runs)

	// Register-then-dispatch: the elastic shape. The coordinator serves
	// a registry; persistent workers come to IT — each serves the
	// versioned dispatch API (WorkerHandler) on its own listener and
	// runs the registration daemon, announcing that URL and a capacity
	// weight. The weight-2 worker receives about twice the runs per
	// round; weights move load, never results, so the merged Report is
	// still the bit-identical one. (`experiments -registry/-worker-daemon`
	// are these same calls across hosts.)
	reg := chaffmec.NewWorkerRegistry(chaffmec.WorkerRegistryOptions{})
	defer reg.Close()
	regLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go http.Serve(regLn, reg.Handler()) //nolint:errcheck // lives for the example
	for _, weight := range []float64{1, 2} {
		workerLn, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		go http.Serve(workerLn, chaffmec.WorkerHandler(ctx)) //nolint:errcheck // lives for the example
		go func(w float64, addr string) {
			if err := chaffmec.RunWorkerDaemon(ctx, chaffmec.WorkerDaemonOptions{
				Registry:  "http://" + regLn.Addr().String(),
				Advertise: "http://" + addr,
				Weight:    w,
			}); err != nil {
				log.Fatal(err)
			}
		}(weight, workerLn.Addr().String())
	}
	if err := reg.WaitFor(ctx, 2); err != nil { // both daemons hold leases
		log.Fatal(err)
	}
	elastic, err := chaffmec.NewFleet(chaffmec.WithRegistry(reg))
	if err != nil {
		log.Fatal(err)
	}
	elRep, err := elastic.Run(ctx, chaffmec.Job{Spec: adaptive})
	if err != nil {
		log.Fatal(err)
	}
	elSum, err := elRep.Summary()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("registered: tracking accuracy %.6f over %d runs from 2 registered workers (weights 1 and 2)\n",
		elSum.Overall, elSum.Runs)

	// Wire formats: the same Report travels as readable JSON or as the
	// compact binary codec (optionally gzip-framed — the one wire every
	// fleet worker answers in). ReadReports sniffs the
	// leading bytes, so every format reads back with the same call, and
	// every format decodes to the bit-identical envelope.
	dir, err := os.MkdirTemp("", "chaffmec-quickstart-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	sizes := map[chaffmec.ReportEncoding]int64{}
	for _, enc := range []chaffmec.ReportEncoding{
		chaffmec.EncodingJSON, chaffmec.EncodingBinary, chaffmec.EncodingBinaryGzip,
	} {
		path := filepath.Join(dir, "report."+string(enc))
		if err := chaffmec.WriteReportsEncoded(path, []*chaffmec.Report{dist}, enc); err != nil {
			log.Fatal(err)
		}
		info, err := os.Stat(path)
		if err != nil {
			log.Fatal(err)
		}
		sizes[enc] = info.Size()
		back, err := chaffmec.ReadReports(path) // same call for every format
		if err != nil {
			log.Fatal(err)
		}
		backSum, err := back[0].Summary()
		if err != nil {
			log.Fatal(err)
		}
		if backSum.Overall != distSum.Overall {
			log.Fatalf("%s round-trip drifted", enc)
		}
	}
	fmt.Printf("wire:      json %d B, binary %d B, binary+gzip %d B (same report, %.0fx smaller)\n",
		sizes[chaffmec.EncodingJSON], sizes[chaffmec.EncodingBinary], sizes[chaffmec.EncodingBinaryGzip],
		float64(sizes[chaffmec.EncodingJSON])/float64(sizes[chaffmec.EncodingBinaryGzip]))

	// The artifact store persists derived results under content
	// addresses (hash of spec + seed-stream version): with one
	// installed, the coordinator banks every completed shard, so
	// re-running the same experiment is served from disk — zero
	// dispatches, surfaced as "banked" events. Trace-driven scenarios
	// likewise persist their fitted labs and skip the whole fitting
	// pipeline on the next process. Point CHAFFMEC_STORE (or
	// `experiments -store DIR`) at a directory for the same effect.
	bank, err := chaffmec.OpenStore(filepath.Join(dir, "bank"))
	if err != nil {
		log.Fatal(err)
	}
	fixed := protected // fixed-count job: shard coverage replays exactly
	for pass, label := range []string{"cold", "warm"} {
		banked := 0
		banking, err := chaffmec.NewFleet(
			chaffmec.WithInProcessWorkers(4),
			chaffmec.WithStore(bank),
			chaffmec.WithProgress(func(e chaffmec.FanOutEvent) {
				if e.Kind == chaffmec.EventBanked {
					banked++
				}
			}))
		if err != nil {
			log.Fatal(err)
		}
		rerun, err := banking.Run(ctx, chaffmec.Job{Spec: fixed})
		if err != nil {
			log.Fatal(err)
		}
		rerunSum, err := rerun.Summary()
		if err != nil {
			log.Fatal(err)
		}
		if rerunSum.Overall != protSum.Overall {
			log.Fatalf("banked re-run drifted on pass %d", pass)
		}
		fmt.Printf("store:     %s run, %d shards served from the store (accuracy %.3f, unchanged)\n",
			label, banked, rerunSum.Overall)
	}
}
