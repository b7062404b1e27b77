// Command experiments regenerates every table and figure of the paper's
// evaluation section (-fig lists the figure ids it knows). Each
// figure's data is written as CSV under -out, and an ASCII rendering plus
// the headline numbers are printed to stdout. Beyond the paper's figures,
// -scenario runs declarative workloads from a JSON config through the
// scenario registry — new experiment shapes without new code.
//
// Usage:
//
//	experiments -fig all -out out
//	experiments -fig 5,7 -runs 200        # quicker, reduced-run variant
//	experiments -fig 9a,9b,10 -cellruns 8 # trace figures, 8 chaff streams/cell
//	experiments -scenario scenarios.json  # config-driven scenario batch
//
// # Sharding an experiment across processes
//
// Every scenario is a Job over a global Monte-Carlo run range, and the
// engine's streams and aggregates are pure functions of (seed, run) — so
// complementary contiguous shards, run by different processes (or
// hosts), merge into the bit-for-bit identical result of one whole run:
//
//	experiments -scenario scenarios.json -shard 0/2 -report part0.json
//	experiments -scenario scenarios.json -shard 1/2 -report part1.json
//	experiments -merge -report merged.json -out out part0.json part1.json
//
// -shard i/n runs every scenario entry's i-th of n shards and writes the
// raw Report envelopes (JSON array) to -report instead of rendering
// results. -merge reads Report files (the positional arguments), merges
// the partials of each scenario, optionally writes the merged envelopes
// to -report, and renders complete scenarios exactly like an unsharded
// -scenario run.
//
// # Adaptive precision targets and continuing a run
//
// A scenario entry carrying a "precision" block — or every entry, when
// -target-se is given — runs adaptively: runs are added in rounds until
// the tracked standard error reaches the target (stopping between the
// block's min_runs and max_runs), with per-round progress on stderr.
//
// Every -scenario run is a coordinator campaign (internal/coordinator),
// over one in-process worker unless a fleet flag below is given. With
// -store, each campaign journals its finished shards in the artifact
// store, and the journal is the checkpoint: re-run the same command on
// the same -store after an interrupt (Ctrl-C), and only the missing
// runs execute. The re-run may change a scenario's runs, workers or
// precision block — none of them changes what a run computes — and its
// result is bit-for-bit the uninterrupted run of the new config:
//
//	experiments -scenario scenarios.json -target-se 0.005 -store bank
//	^C                                            # finished shards journaled
//	experiments -scenario scenarios.json -target-se 0.002 -store bank
//
// An interrupted run still writes the partial envelopes of its
// completed rounds to -report. The trace figures accept the same
// precision flags: -fig 9b,10 -target-se 0.01 adapts each grid cell's
// chaff-stream count and the CSVs gain per-cell error-bar columns.
//
// # Distributed fan-out
//
// -workers N runs every scenario's campaign over a fleet instead: each
// round of the job is split into contiguous shards dispatched to N
// local worker processes (this binary started as -worker-daemon
// against a registry on a loopback port, fixed once all N have
// registered), failed or straggling shards are retried on other
// workers, and the partials merge into the bit-for-bit single-process
// Report — adaptive -target-se rounds included. The workers are SIGTERMed and reaped when the command
// exits, however it exits:
//
//	experiments -scenario scenarios.json -workers 4 -report out.json
//
// To span hosts, start long-lived HTTP workers and point -connect at
// them:
//
//	experiments -serve :8080                  # on each worker host
//	experiments -scenario scenarios.json -connect http://hostA:8080,http://hostB:8080
//
// Every worker speaks the one HTTP worker API. A worker drains on
// SIGTERM: it finishes the chunk it is in, responds with the
// checkpointed prefix of its shard (HTTP 206), and the coordinator
// re-dispatches only the remainder. A job that never was runnable is
// refused with HTTP 400 before anything runs. -crash-worker i injects
// a deterministic mid-shard crash into local worker i of -workers —
// CI's proof that retry keeps the merge byte-identical.
//
// # Elastic registered fleets
//
// -connect freezes the fleet at startup. The registered mode inverts
// it: the coordinator serves a registry and the workers dial in —
// registering, heartbeating, joining and leaving mid-campaign, with
// unequal shard shares sized by each worker's announced -weight. The
// merged results stay bit-identical through all of it; churn moves
// work around, never changes answers.
//
//	experiments -registry :9000 -fleet-min 2 -scenario scenarios.json
//	experiments -worker-daemon http://coord:9000 -weight 2   # per host
//
// A daemon worker listens on -serve ADDR (default: an ephemeral
// localhost port), advertises -advertise (default: its actual listen
// address), and is evicted when its heartbeats stop — its in-flight
// shards are re-dispatched. A worker on a foreign rng stream version
// or GOARCH, or announcing none, is refused at registration with HTTP
// 409 (its results could not merge bit-identically). -store journals a
// fleet campaign like a local one, so a re-run continues over whichever
// fleet is up.
//
// Performance is measured by the separate perfbench module
// (`bash perfbench/run.sh`), not by this command.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"

	"chaffmec/internal/coordinator"
	"chaffmec/internal/engine"
	"chaffmec/internal/figures"
	"chaffmec/internal/plotter"
	"chaffmec/internal/report"
	"chaffmec/internal/scenario"
	"chaffmec/internal/store"
)

func main() { os.Exit(realMain()) }

// realMain is the program body behind main. It returns the process exit
// code instead of calling os.Exit directly so deferred cleanup — in
// particular the -cpuprofile/-memprofile writers — runs on every path.
func realMain() int {
	var (
		fig      = flag.String("fig", "all", "comma-separated figure ids: 4,kl,5,6,7,eq11,thm,8,9a,9b,10,ext-solvers,ext-multiuser,ext-cost or all")
		outDir   = flag.String("out", "out", "output directory for CSV artifacts")
		runs     = flag.Int("runs", 1000, "Monte-Carlo runs for synthetic experiments")
		seed     = flag.Int64("seed", 1, "random seed")
		horizon  = flag.Int("T", 100, "trajectory length")
		cells    = flag.Int("L", 10, "cells for synthetic models")
		nodes    = flag.Int("nodes", 174, "fleet size for trace-driven experiments")
		topK     = flag.Int("topk", 5, "top users for Figs. 9(b)/10")
		cellRuns = flag.Int("cellruns", 1, "chaff streams averaged per Fig. 9(b)/10 grid cell (the minimum with -target-se)")
		scenFile = flag.String("scenario", "", "JSON scenario config to run instead of the paper figures (kinds: "+strings.Join(scenario.Kinds(), ", ")+")")
		shardArg = flag.String("shard", "", "run scenarios as shard i/n of their run range (requires -scenario and -report)")
		repFile  = flag.String("report", "", "write raw Report envelopes (JSON array) to this file; an interrupted -scenario run writes the partial envelopes of its completed rounds")
		merge    = flag.Bool("merge", false, "merge the Report files given as positional arguments")
		targetSE = flag.Float64("target-se", 0, "adaptive stopping: std-error goal for scenarios without their own precision block, and for Fig. 9(b)/10 grid cells")
		minRuns  = flag.Int("min-runs", 0, "adaptive stopping: run floor before -target-se may stop an experiment")
		maxRuns  = flag.Int("max-runs", 0, "adaptive stopping: run cap when -target-se is unattainable (default: the scenario's runs)")

		workers   = flag.Int("workers", 0, "distribute -scenario jobs over this many local worker processes (this binary started as -worker-daemon against an in-process registry) instead of this process")
		connect   = flag.String("connect", "", "comma-separated base URLs of -serve workers to distribute -scenario jobs to instead of local workers")
		serveAddr = flag.String("serve", "", "serve the worker HTTP API (POST /v1/run, GET /v1/healthz) on this address; with -worker-daemon, the daemon's listen address")
		crashWkr  = flag.Int("crash-worker", -1, "fault injection: local worker i of -workers crashes mid-shard on its first dispatch (CI retry proof)")

		workerDmn = flag.String("worker-daemon", "", "persistent worker mode: listen for dispatches, register with the coordinator registry at this base URL, heartbeat until SIGTERM")
		advertise = flag.String("advertise", "", "with -worker-daemon: the base URL the coordinator should dispatch to (default: the actual listen address)")
		weight    = flag.Float64("weight", 1, "with -worker-daemon: announced capacity weight; the coordinator sizes this worker's shard share by it")
		registry  = flag.String("registry", "", "serve the worker registry on this address and distribute -scenario jobs over the registered (elastic) fleet")
		fleetMin  = flag.Int("fleet-min", 1, "with -registry: wait for this many registered workers before dispatching")

		storeDir   = flag.String("store", "", "keep artifacts (fitted TraceLabs, one journal of full shard Reports per -scenario campaign) in a content-addressed store rooted at this directory; re-running a -scenario command on the same store runs only what its journals lack; $"+store.EnvStore+" sets the same default")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of this invocation to the given file (pprof format)")
		memprofile = flag.String("memprofile", "", "write a heap profile to the given file on exit (pprof format)")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments: cpuprofile:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "experiments: cpuprofile:", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		// Deferred so it captures the heap after the selected workload,
		// whatever exit path it takes.
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "experiments: memprofile:", err)
			}
		}()
	}

	if *storeDir != "" {
		st, err := store.Open(*storeDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return 1
		}
		store.SetDefault(st)
	}

	// Ctrl-C / SIGTERM cancels between runs; scenario paths then persist
	// the partial rounds to -report (the -store journal already holds
	// the finished shards), and the worker modes answer the checkpointed
	// prefix of the shard they are in.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *workerDmn != "" {
		if err := daemonMain(ctx, *workerDmn, *serveAddr, *advertise, *weight); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return 1
		}
		return 0
	}
	if *serveAddr != "" {
		if err := serveMain(ctx, *serveAddr); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return 1
		}
		return 0
	}

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		return 1
	}

	var flagPrec *scenario.Precision
	if *targetSE > 0 {
		flagPrec = &scenario.Precision{TargetSE: *targetSE, MinRuns: *minRuns, MaxRuns: *maxRuns}
	}

	if *workers > 0 || *connect != "" || *registry != "" {
		err := distributedFlagErr(*workers, *connect, *registry, *shardArg, *merge, *scenFile)
		var fleet coordinator.Fleet
		var shutdown func()
		if err == nil {
			switch {
			case *workers == 0 && *crashWkr >= 0:
				err = fmt.Errorf("-crash-worker injects into the workers -workers starts; it cannot combine with -connect or -registry")
			case *registry != "":
				fleet, shutdown, err = registryFleet(ctx, *registry, *fleetMin, nil)
			case *connect != "":
				fleet, err = connectFleet(*connect)
			default:
				fleet, shutdown, err = spawnWorkers(ctx, *workers, *crashWkr)
			}
		}
		if err == nil {
			fmt.Fprintf(os.Stderr, "experiments: distributing over %d workers\n", len(fleet.Members()))
			err = runScenarios(ctx, *scenFile, *outDir, *repFile, flagPrec, fleet, coordinator.Options{})
		}
		if shutdown != nil {
			shutdown()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return 1
		}
		return 0
	}
	if *merge {
		if err := mergeReports(flag.Args(), *repFile, *outDir); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return 1
		}
		return 0
	}
	if *shardArg != "" {
		shard, err := parseShard(*shardArg)
		if err == nil && flagPrec != nil {
			// A shard executes exactly its assigned slice; silently
			// running it fixed would let the user believe the partial was
			// SE-targeted.
			err = fmt.Errorf("-target-se cannot combine with -shard (a shard executes its fixed slice; run the job whole)")
		}
		if err == nil && *scenFile == "" {
			err = fmt.Errorf("-shard needs -scenario")
		}
		if err == nil && *repFile == "" {
			err = fmt.Errorf("-shard needs -report (the partial envelopes must go somewhere)")
		}
		if err == nil {
			err = runShard(ctx, *scenFile, shard, *repFile)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return 1
		}
		return 0
	}
	if *scenFile != "" {
		if err := runScenarios(ctx, *scenFile, *outDir, *repFile, flagPrec, localFleet, localOptions); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return 1
		}
		return 0
	}
	cfg := figures.Config{Runs: *runs, Horizon: *horizon, Cells: *cells, Seed: *seed}
	r := &runner{cfg: cfg, outDir: *outDir, nodes: *nodes, topK: *topK, seed: *seed,
		grid: figures.GridOptions{Runs: *cellRuns, TargetSE: *targetSE, MaxRuns: *maxRuns}}

	wanted := map[string]bool{}
	for _, f := range strings.Split(*fig, ",") {
		wanted[strings.TrimSpace(strings.ToLower(f))] = true
	}
	all := wanted["all"]
	ranAny := false
	for _, s := range r.steps() {
		if !all && !wanted[s.id] {
			continue
		}
		ranAny = true
		fmt.Printf("\n===== experiment %s =====\n", s.id)
		if err := s.run(); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", s.id, err)
			return 1
		}
	}
	if !ranAny {
		fmt.Fprintf(os.Stderr, "experiments: no known figure in %q\n", *fig)
		return 1
	}
	return 0
}

// parseShard parses an "i/n" selector; the whole string must match (a
// trailing typo must not silently run the wrong slice).
func parseShard(s string) (engine.Shard, error) {
	var sh engine.Shard
	i, n, ok := strings.Cut(s, "/")
	if ok {
		var errI, errN error
		sh.Index, errI = strconv.Atoi(strings.TrimSpace(i))
		sh.Count, errN = strconv.Atoi(strings.TrimSpace(n))
		ok = errI == nil && errN == nil
	}
	if !ok {
		return sh, fmt.Errorf("parsing shard %q (want i/n)", s)
	}
	return sh, sh.Validate()
}

// runShard executes every scenario of the config as one shard of its run
// range and writes the raw partial Report envelopes to repFile.
func runShard(ctx context.Context, path string, shard engine.Shard, repFile string) error {
	reps, err := scenario.RunJobFile(ctx, path, shard)
	if err != nil {
		return err
	}
	for _, rep := range reps {
		fmt.Printf("%-30s shard %s: runs [%d,%d) of %d (%.0f ms)\n",
			rep.Name, shard, rep.RunStart, rep.RunStart+rep.RunCount, rep.TotalRuns, rep.ElapsedMS)
	}
	if err := report.WriteFile(repFile, reps); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", repFile)
	return nil
}

// mergeReports reads Report files, merges each scenario's partials (in
// any order), optionally writes the merged envelopes to repFile, and
// renders complete scenarios like an unsharded run.
func mergeReports(paths []string, repFile, outDir string) error {
	if len(paths) == 0 {
		return fmt.Errorf("-merge needs Report files as positional arguments")
	}
	// Group partials by config-entry position AND scenario header: every
	// shard invocation writes one report per config entry in config
	// order, so entry i of each file belongs to one experiment — even
	// when a config repeats the same (name, kind, seed) in several
	// entries (duplicate bare entries are legal, see the CSV dedup).
	var order []string
	groups := map[string][]*report.Report{}
	for _, path := range paths {
		reps, err := report.ReadFile(path)
		if err != nil {
			return err
		}
		for i, rep := range reps {
			key := fmt.Sprintf("%d\x00%s\x00%s\x00%d", i, rep.Name, rep.Kind, rep.Seed)
			if _, seen := groups[key]; !seen {
				order = append(order, key)
			}
			groups[key] = append(groups[key], rep)
		}
	}
	var merged []*report.Report
	var results []*scenario.Result
	for _, key := range order {
		rep, err := report.Merge(groups[key]...)
		if err != nil {
			return err
		}
		merged = append(merged, rep)
		if !rep.Complete() {
			fmt.Printf("%-30s INCOMPLETE: runs [%d,%d) of %d\n",
				rep.Name, rep.RunStart, rep.RunStart+rep.RunCount, rep.TotalRuns)
			continue
		}
		res, err := scenario.ResultOf(rep)
		if err != nil {
			return err
		}
		results = append(results, res)
	}
	if repFile != "" {
		if err := report.WriteFile(repFile, merged); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", repFile)
	}
	return renderScenarioResults(results, outDir)
}

// applyPrecision imposes the CLI's -target-se block on a spec that does
// not carry its own precision block (an explicit config block wins).
func applyPrecision(sp scenario.Spec, prec *scenario.Precision) scenario.Spec {
	if prec != nil && sp.Precision == nil {
		p := *prec
		sp.Precision = &p
	}
	return sp
}

// localFleet is the fleet a -scenario run without -workers, -connect or
// -registry runs over: one worker executing in this process.
var localFleet = coordinator.StaticOf(&coordinator.InProcess{})

// localOptions hand the local worker each round whole: a retry or
// straggler re-dispatch has no other worker to go to, so a second
// shard per round would only add a shard's set-up cost.
var localOptions = coordinator.Options{ShardsPerWorker: 1}

// runScenarios executes a JSON scenario config, every entry a
// coordinator campaign over the fleet — fixed jobs as one sharded
// round, precision-targeted ones (or every one under -target-se) as
// SE-driven extension rounds: per-scenario headline numbers and an
// ASCII chart on stdout, progress on stderr, one CSV per scenario under
// outDir, and (when repFile is set) the raw Report envelopes as JSON.
// The merged reports are bit-identical whatever the fleet. On failure —
// including an interrupt mid-round — the envelopes completed so far,
// plus the failing scenario's partial rounds, are still written to
// repFile; with a store, a re-run continues from the campaigns'
// journals.
func runScenarios(ctx context.Context, path, outDir, repFile string, prec *scenario.Precision, fleet coordinator.Fleet, opts coordinator.Options) error {
	specs, err := scenario.LoadFile(path)
	if err != nil {
		return err
	}
	var reps []*report.Report
	var failed error
	joined := map[string]bool{}
	for i, sp := range specs {
		sp = applyPrecision(sp, prec)
		name := sp.Name
		if name == "" {
			name = sp.Kind
		}
		var tally *wireTally
		opts.Progress, tally = campaignProgress(name, joined)
		rep, err := coordinator.RunFleet(ctx, scenario.Job{Spec: sp}, fleet, opts)
		tally.summary(name)
		if rep != nil {
			reps = append(reps, rep)
		}
		if err != nil {
			failed = fmt.Errorf("entry %d: %w", i, err)
			break
		}
	}
	if repFile != "" && len(reps) > 0 {
		if err := report.WriteFile(repFile, reps); err != nil {
			if failed != nil {
				return fmt.Errorf("%w (and writing partial envelopes: %v)", failed, err)
			}
			return err
		}
		if failed != nil {
			fmt.Fprintf(os.Stderr, "wrote partial envelopes %s (%d envelopes; re-run with the same -store to continue)\n", repFile, len(reps))
		} else {
			fmt.Printf("wrote %s\n", repFile)
		}
	}
	if failed != nil {
		return failed
	}
	results := make([]*scenario.Result, 0, len(reps))
	for _, rep := range reps {
		res, err := scenario.ResultOf(rep)
		if err != nil {
			return err
		}
		results = append(results, res)
	}
	return renderScenarioResults(results, outDir)
}

// renderScenarioResults prints each scenario's headline numbers and
// ASCII chart and writes one CSV per scenario under outDir.
func renderScenarioResults(results []*scenario.Result, outDir string) error {
	r := &runner{outDir: outDir}
	// Scenario names are free-form (and default to the kind), so two
	// entries can slug to the same CSV name; suffix duplicates instead of
	// silently overwriting the earlier scenario's artifact.
	used := map[string]int{}
	csvName := func(name string) string {
		s := slug(name)
		used[s]++
		if n := used[s]; n > 1 {
			return fmt.Sprintf("scenario_%s_%d.csv", s, n)
		}
		return fmt.Sprintf("scenario_%s.csv", s)
	}
	for _, res := range results {
		fmt.Printf("\n===== scenario %s (%s) =====\n", res.Name, res.Kind)
		fmt.Printf("%-30s runs %d overall %.4f final %.4f\n",
			res.Name, res.Runs, res.Overall, res.PerSlot[len(res.PerSlot)-1])
		series := []plotter.Series{
			plotter.NewSeries("tracking", res.PerSlot),
			plotter.NewSeries("stderr", res.PerSlotStdErr),
		}
		chart, err := plotter.ASCIIChart("scenario "+res.Name, series[:1], 72, 12)
		if err != nil {
			return err
		}
		fmt.Print(chart)
		if err := r.writeCSV(csvName(res.Name), series); err != nil {
			return err
		}
	}
	return nil
}

type runner struct {
	cfg    figures.Config
	outDir string
	nodes  int
	topK   int
	seed   int64
	grid   figures.GridOptions // per-cell runs / precision for 9b/10

	lab *figures.TraceLab // built lazily, shared by 8/9a/9b/10
}

// step is one -fig experiment: its id and the runner method that
// computes, prints and writes it.
type step struct {
	id  string
	run func() error
}

// steps lists every -fig experiment in the order -fig all runs them.
func (r *runner) steps() []step {
	return []step{
		{"4", r.fig4}, {"kl", r.tableKL}, {"5", r.fig5}, {"6", r.fig6},
		{"7", r.fig7}, {"eq11", r.eq11}, {"thm", r.theory},
		{"8", r.fig8}, {"9a", r.fig9a}, {"9b", r.fig9b}, {"10", r.fig10},
		{"ext-solvers", r.extSolvers}, {"ext-multiuser", r.extMultiuser},
		{"ext-cost", r.extCost},
	}
}

func (r *runner) traceLab() (*figures.TraceLab, error) {
	if r.lab != nil {
		return r.lab, nil
	}
	cfg := figures.DefaultTraceConfig()
	cfg.Seed = r.seed
	cfg.Nodes = r.nodes
	fmt.Printf("building trace lab (%d nodes, %d minutes)...\n", cfg.Nodes, cfg.Minutes)
	lab, err := figures.BuildTraceLab(cfg)
	if err != nil {
		return nil, err
	}
	r.lab = lab
	fmt.Printf("trace lab: %d active nodes (%d filtered), %d Voronoi cells\n",
		len(lab.Nodes), lab.FilteredNodes, lab.Quantizer.NumCells())
	return lab, nil
}

func (r *runner) writeCSV(name string, series []plotter.Series) error {
	path := filepath.Join(r.outDir, name)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := plotter.WriteCSV(f, series); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

func (r *runner) fig4() error {
	rows, err := figures.Fig4(r.cfg)
	if err != nil {
		return err
	}
	var series []plotter.Series
	for _, row := range rows {
		series = append(series, plotter.NewSeries(row.Model.String(), row.SteadyState))
		fmt.Printf("%-30s steady state peak %.3f, row-KL %.2f\n",
			row.Model, maxOf(row.SteadyState), row.AvgRowKL)
	}
	return r.writeCSV("fig4_steady_state.csv", series)
}

func (r *runner) tableKL() error {
	rows, err := figures.Fig4(r.cfg)
	if err != nil {
		return err
	}
	fmt.Println("temporal skewness (avg pairwise row KL), paper: 0.44, 0.34, 8.18, 8.48")
	var series []plotter.Series
	for i, row := range rows {
		fmt.Printf("model (%c) %-30s KL = %.2f\n", 'a'+i, row.Model, row.AvgRowKL)
		series = append(series, plotter.Series{Name: row.Model.String(), X: []float64{float64(i)}, Y: []float64{row.AvgRowKL}})
	}
	return r.writeCSV("table_kl_skewness.csv", series)
}

func (r *runner) fig5() error {
	panels, err := figures.Fig5(r.cfg)
	if err != nil {
		return err
	}
	for _, p := range panels {
		var series []plotter.Series
		for _, c := range p.Curves {
			series = append(series, plotter.NewSeries(c.Label, c.PerSlot))
			fmt.Printf("%-30s %-10s overall %.4f\n", p.Model, c.Label, c.Overall)
		}
		chart, err := plotter.ASCIIChart("Fig.5 "+p.Model.String(), series, 72, 14)
		if err != nil {
			return err
		}
		fmt.Print(chart)
		if err := r.writeCSV(fmt.Sprintf("fig5_%s.csv", slug(p.Model.String())), series); err != nil {
			return err
		}
	}
	return nil
}

func (r *runner) fig6() error {
	panels, err := figures.Fig6(r.cfg)
	if err != nil {
		return err
	}
	for _, p := range panels {
		series := []plotter.Series{
			{Name: "CML", X: p.CML.X, Y: p.CML.F},
			{Name: "MO", X: p.MO.X, Y: p.MO.F},
		}
		fmt.Printf("%-30s E[ct] CML %.3f, MO %.3f\n", p.Model, p.MeanCML, p.MeanMO)
		if err := r.writeCSV(fmt.Sprintf("fig6_%s.csv", slug(p.Model.String())), series); err != nil {
			return err
		}
	}
	return nil
}

func (r *runner) fig7() error {
	panels, err := figures.Fig7(r.cfg)
	if err != nil {
		return err
	}
	for _, p := range panels {
		var series []plotter.Series
		for _, c := range p.Curves {
			series = append(series, plotter.NewSeries(c.Label, c.PerSlot))
			fmt.Printf("%-30s %-6s overall %.4f\n", p.Model, c.Label, c.Overall)
		}
		chart, err := plotter.ASCIIChart("Fig.7 "+p.Model.String()+" (advanced eavesdropper, N=10)", series, 72, 14)
		if err != nil {
			return err
		}
		fmt.Print(chart)
		if err := r.writeCSV(fmt.Sprintf("fig7_%s.csv", slug(p.Model.String())), series); err != nil {
			return err
		}
	}
	return nil
}

func (r *runner) eq11() error {
	rows, err := figures.Eq11(r.cfg, nil)
	if err != nil {
		return err
	}
	fmt.Println("Eq.11 closed form vs simulation (IM strategy)")
	// One closed/sim series pair per model, in first-seen row order: the
	// CSV's bytes must not depend on map iteration.
	var series []plotter.Series
	pairAt := map[string]int{}
	for _, row := range rows {
		fmt.Printf("%-30s N=%2d closed %.4f simulated %.4f (limit %.4f)\n",
			row.Model, row.N, row.ClosedForm, row.Simulated, row.Limit)
		key := row.Model.String()
		i, ok := pairAt[key]
		if !ok {
			i = len(series)
			pairAt[key] = i
			series = append(series, plotter.Series{Name: key + "/closed"}, plotter.Series{Name: key + "/sim"})
		}
		closed, sim := &series[i], &series[i+1]
		closed.X = append(closed.X, float64(row.N))
		closed.Y = append(closed.Y, row.ClosedForm)
		sim.X = append(sim.X, float64(row.N))
		sim.Y = append(sim.Y, row.Simulated)
	}
	return r.writeCSV("eq11_im_accuracy.csv", series)
}

func (r *runner) theory() error {
	rows, err := figures.Theory(r.cfg, nil)
	if err != nil {
		return err
	}
	fmt.Println("theorem bounds vs simulation (bounded 3-cell chain)")
	var series []plotter.Series
	for _, row := range rows {
		fmt.Printf("%-8s T=%5d holds=%-5v bound=%-10.4g overallBound=%-10.4g simFinal=%.4f simOverall=%.4f µ=%.3f\n",
			row.Label, row.T, row.Holds, row.Bound, row.OverallBound, row.SimFinal, row.SimOverall, row.Mu)
		series = append(series,
			plotter.Series{Name: row.Label + "/bound", X: []float64{float64(row.T)}, Y: []float64{row.Bound}},
			plotter.Series{Name: row.Label + "/sim", X: []float64{float64(row.T)}, Y: []float64{row.SimFinal}},
		)
	}
	return r.writeCSV("theory_bounds.csv", series)
}

func (r *runner) fig8() error {
	lab, err := r.traceLab()
	if err != nil {
		return err
	}
	res, err := figures.Fig8(lab)
	if err != nil {
		return err
	}
	fmt.Printf("cells=%d (paper: 959), active nodes=%d (paper: 174), filtered=%d\n",
		res.NumCells, res.ActiveNodes, res.FilteredNodes)
	fmt.Printf("steady-state peak %.4f (paper Fig.8(b) ≈ 0.035), row-KL (smoothed) %.2f\n",
		maxOf(res.SteadyState), res.AvgRowKL)
	layout := make([]plotter.Series, 2)
	layout[0].Name = "tower"
	for _, p := range res.Towers {
		layout[0].X = append(layout[0].X, p.X)
		layout[0].Y = append(layout[0].Y, p.Y)
	}
	layout[1].Name = "node-start"
	for _, p := range res.NodeStarts {
		layout[1].X = append(layout[1].X, p.X)
		layout[1].Y = append(layout[1].Y, p.Y)
	}
	if err := r.writeCSV("fig8a_layout.csv", layout); err != nil {
		return err
	}
	return r.writeCSV("fig8b_steady_state.csv",
		[]plotter.Series{plotter.NewSeries("empirical-pi", res.SteadyState)})
}

func (r *runner) fig9a() error {
	lab, err := r.traceLab()
	if err != nil {
		return err
	}
	res, err := figures.Fig9a(lab)
	if err != nil {
		return err
	}
	fmt.Printf("baseline 1/N = %.4f; top-5 accuracies:", res.Baseline)
	for i := 0; i < 5 && i < len(res.Accuracy); i++ {
		fmt.Printf(" %.3f", res.Accuracy[i])
	}
	fmt.Println()
	return r.writeCSV("fig9a_no_chaff.csv",
		[]plotter.Series{plotter.NewSeries("accuracy-sorted", res.Accuracy)})
}

func (r *runner) fig9b() error {
	lab, err := r.traceLab()
	if err != nil {
		return err
	}
	res, err := figures.Fig9b(lab, r.topK, r.seed, r.grid)
	if err != nil {
		return err
	}
	return r.renderBars("Fig.9(b) single chaff, basic eavesdropper", "fig9b_single_chaff.csv", res)
}

func (r *runner) fig10() error {
	lab, err := r.traceLab()
	if err != nil {
		return err
	}
	res, err := figures.Fig10(lab, r.topK, r.seed, r.grid)
	if err != nil {
		return err
	}
	return r.renderBars("Fig.10 two chaffs, advanced eavesdropper", "fig10_advanced.csv", res)
}

func (r *runner) renderBars(title, file string, res *figures.TraceBarResult) error {
	groups := make([]plotter.Bar, len(res.Users))
	var series []plotter.Series
	for u, name := range res.Users {
		groups[u] = plotter.Bar{Label: fmt.Sprintf("user%d (%s)", u+1, name), Values: res.Acc[u]}
	}
	for s, sname := range res.Strategies {
		ser := plotter.Series{Name: sname}
		bar := plotter.Series{Name: sname + "_stderr"}
		for u := range res.Users {
			ser.X = append(ser.X, float64(u+1))
			ser.Y = append(ser.Y, res.Acc[u][s])
			bar.X = append(bar.X, float64(u+1))
			bar.Y = append(bar.Y, res.StdErr[u][s])
		}
		series = append(series, ser, bar)
	}
	bars, err := plotter.ASCIIBars(title, res.Strategies, groups, 40)
	if err != nil {
		return err
	}
	fmt.Print(bars)
	// Per-cell error bars and adaptive repetition counts (the variance
	// study the per-cell precision target drives).
	for u, name := range res.Users {
		fmt.Printf("user%d (%s):", u+1, name)
		for s, sname := range res.Strategies {
			if res.CellRuns[u][s] == 0 {
				fmt.Printf("  %s %.3f", sname, res.Acc[u][s])
				continue
			}
			fmt.Printf("  %s %.3f±%.3f (n=%d)", sname, res.Acc[u][s], res.StdErr[u][s], res.CellRuns[u][s])
		}
		fmt.Println()
	}
	return r.writeCSV(file, series)
}

func (r *runner) extSolvers() error {
	rows, err := figures.ExtSolvers(r.cfg)
	if err != nil {
		return err
	}
	fmt.Println("online-strategy solver comparison (basic eavesdropper, 1 chaff)")
	var series []plotter.Series
	for _, row := range rows {
		fmt.Printf("%-30s %-9s overall %.4f final %.4f\n", row.Model, row.Strategy, row.Overall, row.Final)
		series = append(series, plotter.Series{
			Name: slug(row.Model.String()) + "/" + row.Strategy,
			X:    []float64{0}, Y: []float64{row.Overall},
		})
	}
	return r.writeCSV("ext_solvers.csv", series)
}

func (r *runner) extMultiuser() error {
	rows, err := figures.ExtMultiuser(r.cfg, nil)
	if err != nil {
		return err
	}
	fmt.Println("multi-user cover (statistically identical coexisting users)")
	var series []plotter.Series
	for _, row := range rows {
		fmt.Printf("%-30s others=%2d unprotected %.4f with-MO-chaff %.4f (Σπ² = %.4f)\n",
			row.Model, row.OtherUsers, row.Unprotected, row.WithMOChaff, row.CollisionLimit)
		series = append(series,
			plotter.Series{Name: slug(row.Model.String()) + "/unprotected",
				X: []float64{float64(row.OtherUsers)}, Y: []float64{row.Unprotected}},
			plotter.Series{Name: slug(row.Model.String()) + "/mo-chaff",
				X: []float64{float64(row.OtherUsers)}, Y: []float64{row.WithMOChaff}},
		)
	}
	return r.writeCSV("ext_multiuser.csv", series)
}

func (r *runner) extCost() error {
	rows, err := figures.ExtCostPrivacy(r.cfg, nil)
	if err != nil {
		return err
	}
	fmt.Println("cost-privacy tradeoff (MEC substrate, 5x5 grid)")
	var series []plotter.Series
	for _, row := range rows {
		fmt.Printf("%-5s chaffs=%d accuracy %.4f cost: migration %.1f + chaff %.1f = %.1f\n",
			row.Strategy, row.NumChaffs, row.Accuracy, row.MigrationCost, row.ChaffCost, row.TotalCost)
		series = append(series, plotter.Series{
			Name: row.Strategy,
			X:    []float64{row.TotalCost}, Y: []float64{row.Accuracy},
		})
	}
	return r.writeCSV("ext_cost_privacy.csv", series)
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

func slug(s string) string {
	s = strings.ReplaceAll(s, "&", "_and_")
	s = strings.ReplaceAll(s, " ", "_")
	// Scenario names are free-form config strings; keep the artifact name
	// inside -out even when the name contains path separators.
	s = strings.ReplaceAll(s, "/", "_")
	s = strings.ReplaceAll(s, "\\", "_")
	return s
}
