// Package chaffmec is a Go implementation of "Location Privacy in Mobile
// Edge Clouds: A Chaff-based Approach" (He, Ciftcioglu, Wang, Chan;
// ICDCS 2017 / arXiv:1709.03133): chaff-service control strategies that
// protect a mobile user's location from a cyber eavesdropper observing
// service migrations between mobile edge clouds.
//
// The package is the public facade over the implementation packages.
// Its center is ONE experiment API: every evaluation — single-user
// synthetic scenarios, multi-user populations, mixed or heterogeneous
// chaff strategies, trace-driven fleets, MEC substrate episode batches —
// is a Job (a declarative scenario spec plus an optional shard selector)
// answered by a Report (a JSON-serializable envelope of per-slot series,
// scalar aggregates, run counts, seed/stream provenance and timing).
// Jobs run on the shared parallel Monte-Carlo engine (internal/engine):
// deterministic per-run seed streams, per-worker reusable scratch,
// run-order deterministic aggregation, context cancellation.
//
// Scaling past one process is built into the contract: a Job's shard
// selector restricts execution to a contiguous slice of the global run
// range, the emitted Report is a serializable partial, and MergeReports
// combines complementary partials — produced by this process, another
// process, or another host — into the bit-for-bit identical Report a
// single whole run yields.
//
// Execution is also adaptive and resumable: a spec carrying a
// ScenarioPrecision block runs in SE-targeted rounds, stopping as soon
// as the tracked standard error reaches the goal instead of burning a
// fixed run count; a Fleet with an artifact store (WithStore) journals
// every finished shard, so re-running an interrupted job computes only
// what is missing and finishes as the bit-for-bit result of the
// uninterrupted run.
//
// Beneath the Job/Report surface sit:
//
//   - mobility models (the paper's four synthetic models plus 2-D grids),
//   - chaff control strategies (IM, ML, CML, OO, MO and the robust
//     randomized RML/ROO/RMO, plus a rollout-MDP extension),
//   - eavesdropper detectors (basic ML and strategy-aware advanced),
//   - the scenario registry (internal/scenario; kinds single, multiuser,
//     mixed, hetero, trace, mecbatch) that turns new workloads into JSON
//     entries instead of new packages,
//   - the theory bounds of Theorems V.4/V.5 and Corollary V.6,
//   - the trace pipeline (synthetic taxi traces, Voronoi quantisation,
//     empirical chain fitting), and
//   - a discrete-time MEC substrate simulator with migration events,
//     chaff orchestration, cost accounting and failure injection.
//
// # Quick start
//
// Run a scenario as one Job and read the digest:
//
//	rep, _ := chaffmec.RunJob(context.Background(), chaffmec.Job{
//		Spec: chaffmec.ScenarioSpec{
//			Kind: "single", Strategy: "MO", NumChaffs: 1,
//			Horizon: 100, Runs: 1000, Seed: 1,
//		},
//	})
//	sum, _ := rep.Summary()
//	fmt.Printf("tracking accuracy: %.3f\n", sum.Overall)
//
// Or split the same experiment across two processes and merge:
//
//	a, _ := chaffmec.RunJob(ctx, chaffmec.Job{Spec: spec, Shard: chaffmec.Shard{Index: 0, Count: 2}})
//	b, _ := chaffmec.RunJob(ctx, chaffmec.Job{Spec: spec, Shard: chaffmec.Shard{Index: 1, Count: 2}})
//	whole, _ := chaffmec.MergeReports(a, b) // bit-identical to the unsharded run
//
// Or let the precision target pick the run count, and journal long
// jobs in an artifact store so an interrupted one continues:
//
//	spec.Precision = &chaffmec.ScenarioPrecision{TargetSE: 0.005, MaxRuns: 100_000}
//	st, _ := chaffmec.OpenStore("bank")
//	fleet, _ := chaffmec.NewFleet(chaffmec.WithInProcessWorkers(1), chaffmec.WithStore(st))
//	rep, err := fleet.Run(ctx, chaffmec.Job{Spec: spec})
//	// interrupted? Run it again on the same store: only the gaps run.
//
// Or fan the job out over a worker fleet — the coordinator shards each
// round by the members' capacity weights, retries failures and
// stragglers, admits and evicts elastic workers mid-campaign, and
// merges back the bit-identical Report (see cmd/experiments
// -registry/-worker-daemon/-serve for the process-level fleets):
//
//	fleet, _ := chaffmec.NewFleet(chaffmec.WithWorkerURLs("http://a:8080", "http://b:8080"))
//	rep, _ := fleet.Run(ctx, chaffmec.Job{Spec: spec})
//
// Persistent workers register themselves instead of being listed:
// workers run RunWorkerDaemon (or `experiments -worker-daemon URL`)
// against a registry, and the fleet follows the live membership — with
// a store, Run continues a journaled campaign over whatever workers
// exist now:
//
//	reg := chaffmec.NewWorkerRegistry(chaffmec.WorkerRegistryOptions{})
//	http.Handle("/", reg.Handler()) // workers POST /v1/register here
//	fleet, _ := chaffmec.NewFleet(chaffmec.WithRegistry(reg), chaffmec.WithStore(st))
//	rep, _ := fleet.Run(ctx, chaffmec.Job{Spec: spec})
//
// Evaluate remains the one-call convenience wrapper over the same
// registry for callers holding a custom Chain. See examples/ for
// runnable programs, cmd/experiments for the figure/scenario/shard CLI,
// and internal/figures for the code that regenerates every figure and
// table of the paper.
package chaffmec

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"chaffmec/internal/analysis"
	"chaffmec/internal/chaff"
	"chaffmec/internal/coordinator"
	"chaffmec/internal/detect"
	"chaffmec/internal/engine"
	"chaffmec/internal/figures"
	"chaffmec/internal/markov"
	"chaffmec/internal/mec"
	"chaffmec/internal/mobility"
	"chaffmec/internal/report"
	"chaffmec/internal/rng"
	"chaffmec/internal/scenario"
	"chaffmec/internal/store"
)

// Core types re-exported from the implementation packages.
type (
	// Chain is a finite-state Markov mobility model.
	Chain = markov.Chain
	// Trajectory is a sequence of cell indices, one per time slot.
	Trajectory = markov.Trajectory
	// Strategy generates chaff trajectories for a user trajectory.
	Strategy = chaff.Strategy
	// OnlineController drives chaffs causally (for the MEC simulator).
	OnlineController = chaff.OnlineController
	// ModelID selects one of the paper's synthetic mobility models.
	ModelID = mobility.ModelID
	// Grid is a rectangular cell layout for 2-D walks and MEC networks.
	Grid = mobility.Grid
	// GammaFunc is the deterministic strategy map used by the advanced
	// eavesdropper.
	GammaFunc = detect.GammaFunc
	// CappedGammaFunc is GammaFunc with a co-location cap, the form the
	// advanced eavesdropper calls and ScenarioSpec.Gamma takes.
	CappedGammaFunc = detect.CappedGammaFunc
)

// The paper's four synthetic mobility models (Section VII-A.1).
const (
	ModelNonSkewed        = mobility.ModelNonSkewed
	ModelSpatiallySkewed  = mobility.ModelSpatiallySkewed
	ModelTemporallySkewed = mobility.ModelTemporallySkewed
	ModelBothSkewed       = mobility.ModelBothSkewed
)

// NewChain validates a row-stochastic transition matrix.
func NewChain(p [][]float64) (*Chain, error) { return markov.New(p) }

// NewRNG returns a seeded random stream on the library's canonical
// generator (the allocation-free splitmix64 source of internal/rng) —
// the reproducible way to drive Sample, GenerateChaffs or a MEC
// simulator run from outside the module.
func NewRNG(seed int64) *rand.Rand { return rng.New(seed) }

// BuildModel constructs one of the paper's synthetic mobility models over
// cells states, seeded for reproducibility.
func BuildModel(id ModelID, cells int, seed int64) (*Chain, error) {
	return mobility.Build(id, rng.New(seed), cells)
}

// NewStrategy constructs a chaff strategy by its paper name: IM, ML, CML,
// OO, MO, RML, ROO, RMO, or Rollout.
func NewStrategy(name string, chain *Chain) (Strategy, error) {
	return chaff.NewByName(name, chain)
}

// StrategyNames lists the available strategies.
func StrategyNames() []string { return chaff.Names() }

// ErrNoGamma marks strategies that are valid but have no deterministic
// trajectory map Γ (IM, Rollout): errors.Is(Gamma(...), ErrNoGamma)
// distinguishes "nothing for the advanced eavesdropper to exploit" from
// a real construction failure.
var ErrNoGamma = chaff.ErrNoGamma

// Gamma returns the deterministic trajectory map Γ of a strategy family,
// as assumed by the advanced eavesdropper: ML, CML, OO and MO have one
// (the robust variants are recognized through their originals: RML→ML,
// ROO→OO, RMO→MO); IM has none (ErrNoGamma).
func Gamma(name string, chain *Chain) (GammaFunc, error) {
	gamma, err := chaff.GammaByName(name, chain)
	if err != nil {
		return nil, err
	}
	return GammaFunc(gamma), nil
}

// Evaluation describes one Monte-Carlo experiment: a user following Chain,
// NumChaffs chaffs controlled by Strategy, and an eavesdropper (basic ML
// detector, or the strategy-aware advanced one when Advanced is set).
type Evaluation struct {
	Chain     *Chain
	Strategy  string
	NumChaffs int
	Horizon   int
	Runs      int
	Seed      int64
	// Advanced switches to the strategy-aware eavesdropper; the Γ map is
	// derived from Strategy automatically. Strategies without a
	// deterministic Γ (IM, Rollout) degenerate to the basic detector
	// (Section VI-A.1); any other Γ construction failure is returned.
	Advanced bool
	// Workers caps parallelism (0 = GOMAXPROCS).
	Workers int
	// Precision, when non-nil with a positive target, makes the run
	// adaptive: Monte-Carlo runs are added in rounds until the tracking
	// series' standard error reaches Precision.TargetSE (between
	// MinRuns and MaxRuns), instead of executing the fixed Runs count.
	Precision *ScenarioPrecision
}

// Result is the aggregated outcome of an Evaluation.
type Result struct {
	// PerSlot is the eavesdropper's mean tracking accuracy per slot;
	// Overall is its time average (the paper's headline metric).
	PerSlot []float64
	Overall float64
	// Detection is the mean per-slot detection accuracy.
	Detection []float64
	// Runs echoes the repetition count.
	Runs int
}

// Evaluate runs the experiment — a convenience wrapper submitting a
// "single"-kind Job with the caller's Chain injected into the scenario
// registry. The Job resolves the advanced eavesdropper's Γ itself.
func Evaluate(e Evaluation) (*Result, error) {
	if e.Chain == nil {
		return nil, fmt.Errorf("chaffmec: Evaluation needs a Chain")
	}
	spec := ScenarioSpec{
		Kind:      "single",
		Chain:     e.Chain,
		Strategy:  e.Strategy,
		NumChaffs: e.NumChaffs,
		Horizon:   e.Horizon,
		Runs:      e.Runs,
		Seed:      e.Seed,
		Workers:   e.Workers,
		Precision: e.Precision,
		Advanced:  e.Advanced,
	}
	rep, err := RunJob(context.Background(), Job{Spec: spec})
	if err != nil {
		return nil, err
	}
	sum, err := rep.Summary()
	if err != nil {
		return nil, err
	}
	det, err := rep.SeriesStats(report.SeriesDetection)
	if err != nil {
		return nil, err
	}
	return &Result{
		PerSlot:   sum.PerSlot,
		Overall:   sum.Overall,
		Detection: det.Mean(),
		Runs:      sum.Runs,
	}, nil
}

// IMAccuracy is the closed-form Eq. 11 tracking accuracy under N−1
// impersonating chaffs (N total trajectories).
func IMAccuracy(chain *Chain, n int) (float64, error) { return analysis.IMAccuracy(chain, n) }

// TrackingBound evaluates the Theorem V.4 upper bound on the tracking
// accuracy under the CML (hence OO) strategy at horizon T. Bounds ≥ 1 are
// vacuous at that horizon.
func TrackingBound(chain *Chain, T int) (bound float64, holds bool, err error) {
	res, err := analysis.TheoremV4(chain, T, 0.01, 200000)
	if err != nil {
		return 0, false, err
	}
	return res.Bound, res.Holds, nil
}

// MEC substrate re-exports.
type (
	// MECConfig configures the discrete-time MEC substrate simulator.
	MECConfig = mec.Config
	// MECReport is one simulated episode's outcome.
	MECReport = mec.Report
	// MECPolicy decides real-service placement.
	MECPolicy = mec.Policy
	// MECSimulator is the discrete-time MEC substrate simulator behind
	// NewMECSimulator.
	MECSimulator = mec.Simulator
	// FollowUser always migrates the service to the user's cell.
	FollowUser = mec.FollowUser
	// ThresholdPolicy tolerates bounded user-service distance.
	ThresholdPolicy = mec.ThresholdPolicy
)

// NewMECSimulator builds the substrate simulator.
func NewMECSimulator(cfg MECConfig) (*MECSimulator, error) { return mec.NewSimulator(cfg) }

// NewGrid builds a W×H cell grid; Grid.Walk gives a 2-D mobility chain.
func NewGrid(w, h int) (Grid, error) { return mobility.NewGrid(w, h) }

// NewOnlineController returns the online form of a strategy (IM, CML, MO,
// RMO, or Rollout) for use with the MEC simulator.
func NewOnlineController(name string, chain *Chain) (OnlineController, error) {
	s, err := chaff.NewByName(name, chain)
	if err != nil {
		return nil, err
	}
	oc, ok := s.(chaff.OnlineController)
	if !ok {
		return nil, fmt.Errorf("chaffmec: strategy %q is offline-only (needs the user's future trajectory)", name)
	}
	return oc, nil
}

// The one experiment API: declarative, JSON-loadable workloads running
// on the shared Monte-Carlo engine, answered by serializable reports.
type (
	// ScenarioSpec declares one scenario instance (kind, mobility model,
	// strategy/population, eavesdropper, Monte-Carlo options).
	ScenarioSpec = scenario.Spec
	// ScenarioMember declares one slice of a "hetero" population.
	ScenarioMember = scenario.Member
	// ScenarioResult is a scenario's aggregated outcome in digest form.
	ScenarioResult = scenario.Result
	// Job is a scenario spec plus the shard of its run range to execute.
	Job = scenario.Job
	// Shard selects one contiguous slice of a job's global run range.
	Shard = engine.Shard
	// Report is the serializable result envelope of a job: named series
	// and scalar aggregates plus provenance, exactly mergeable across
	// complementary shards.
	Report = report.Report
	// ReportSummary is the human-facing digest of a Report.
	ReportSummary = report.Summary
	// ScenarioPrecision is a spec's adaptive-execution block: a
	// standard-error goal on a named series or scalar, with run-count
	// bounds. A job carrying one runs in SE-targeted rounds.
	ScenarioPrecision = scenario.Precision
	// AdaptiveRound describes one completed round of a job (the
	// progress unit of RunAdaptiveJob).
	AdaptiveRound = scenario.Round
)

// ScenarioKinds lists the registered scenario kinds (hetero, mecbatch,
// mixed, multiuser, single, trace).
func ScenarioKinds() []string { return scenario.Kinds() }

// RunJob executes one job — the whole experiment, or one shard of it —
// and returns its Report. A job whose spec carries a ScenarioPrecision
// block (and selects the whole range) runs adaptively. ctx cancels the
// engine between runs.
func RunJob(ctx context.Context, job Job) (*Report, error) { return scenario.RunJob(ctx, job) }

// RunAdaptiveJob executes one whole job in rounds, reporting each
// completed round to progress (nil: silent): SE-targeted when the spec
// carries a precision block, a single fixed round otherwise. On error —
// including ctx cancellation mid-round — the partial Report accumulated
// from the completed rounds is returned alongside the error. To
// continue an interrupted job, run it on a Fleet with a store.
func RunAdaptiveJob(ctx context.Context, job Job, progress func(AdaptiveRound)) (*Report, error) {
	return scenario.RunAdaptive(ctx, job, progress)
}

// MergeReports combines partial reports of one experiment (complementary
// shards, in any order) into one report; merging a complete set
// reproduces the unsharded Report bit-for-bit.
func MergeReports(parts ...*Report) (*Report, error) { return report.Merge(parts...) }

// ReadReports reads a report-envelope file — the cross-process leg of
// the shard workflow (see also cmd/experiments -shard/-merge). It
// detects the envelope's encoding (JSON, compact binary, gzipped
// binary) from its leading bytes, so files written by any
// ReportEncoding read back with the same call.
func ReadReports(path string) ([]*Report, error) { return report.ReadFile(path) }

// WriteReports writes report envelopes to path as the historical JSON
// array; use WriteReportsEncoded for the compact binary wire formats.
func WriteReports(path string, reps []*Report) error { return report.WriteFile(path, reps) }

// ReportEncoding names one of the wire formats a Report envelope can
// travel in. All of them decode back to the bit-identical JSON
// envelope; they differ only in size and speed.
type ReportEncoding = report.Encoding

// The report wire formats, from most verbose to most compact.
const (
	// EncodingJSON is the historical indented JSON array.
	EncodingJSON = report.EncodingJSON
	// EncodingBinary is the compact binary codec: varint/delta-encoded
	// coverage spines, raw little-endian float64 series blocks.
	EncodingBinary = report.EncodingBinary
	// EncodingBinaryGzip is the binary codec behind a gzip frame — the
	// leanest wire format, and the one every fleet worker answers in.
	EncodingBinaryGzip = report.EncodingBinaryGzip
)

// WriteReportsEncoded writes the envelope to path in the chosen
// encoding (empty: JSON). ReadReports reads any of them back.
func WriteReportsEncoded(path string, reps []*Report, enc ReportEncoding) error {
	return report.WriteFileEncoded(path, reps, enc)
}

// Distributed fan-out re-exports: one Job spread over a fleet of
// workers, merged back bit-for-bit (internal/coordinator).
type (
	// WorkerTransport hands shard jobs to one worker: in-process or
	// HTTP (`experiments -serve` / `-worker-daemon`, and the local
	// daemons `experiments -workers N` spawns).
	WorkerTransport = coordinator.Transport
	// FanOutEvent is one coordinator progress observation (dispatches,
	// results, retries, dead workers, banked shards, completed rounds).
	FanOutEvent = coordinator.Event
	// WireStats counts one dispatch's bytes on the wire and the encoding
	// they traveled in (FanOutEvent.Wire on result/partial events).
	WireStats = coordinator.WireStats
	// FanOutEventKind classifies FanOutEvents.
	FanOutEventKind = coordinator.EventKind
)

// The coordinator progress event kinds (FanOutEvent.Kind).
const (
	// EventDispatch: a shard was handed to a worker.
	EventDispatch = coordinator.EventDispatch
	// EventResult: a worker returned a full shard Report.
	EventResult = coordinator.EventResult
	// EventPartial: a worker died mid-shard; its checkpointed prefix
	// was banked and only the remainder is re-dispatched.
	EventPartial = coordinator.EventPartial
	// EventFailure: a dispatch failed and the shard retries elsewhere.
	EventFailure = coordinator.EventFailure
	// EventWorkerDead: a worker exhausted its failure budget and left
	// the fleet.
	EventWorkerDead = coordinator.EventWorkerDead
	// EventWorkerJoin: a fleet member was admitted to the dispatch pool
	// (initial members included — every admission is a join).
	EventWorkerJoin = coordinator.EventWorkerJoin
	// EventWorkerLeft: a fleet member disappeared from the membership
	// (heartbeat-timeout eviction, deregistration).
	EventWorkerLeft = coordinator.EventWorkerLeft
	// EventRound: one adaptive round completed and merged.
	EventRound = coordinator.EventRound
	// EventBanked: a run range was served from the campaign's journal
	// in the artifact store instead of being dispatched at all (one
	// event per journal record a round uses).
	EventBanked = coordinator.EventBanked
)

// Elastic fleet re-exports: registered persistent workers, capacity
// weights, heartbeat-TTL membership (internal/coordinator).
type (
	// FleetMember is one worker of a fleet: a dispatch transport plus
	// its membership ID and capacity weight.
	FleetMember = coordinator.Member
	// WorkerRegistry tracks persistent registered workers: POST
	// /v1/register admits them, POST /v1/heartbeat keeps them, a missed
	// TTL evicts them. It is a live fleet — membership changes are
	// admitted mid-campaign.
	WorkerRegistry = coordinator.Registry
	// WorkerRegistryOptions tunes a WorkerRegistry (heartbeat cadence,
	// eviction TTL, the dial hook turning registrations into transports).
	WorkerRegistryOptions = coordinator.RegistryOptions
	// WorkerCapabilities is the capability envelope a persistent worker
	// announces on registration and echoes on /v1/healthz: address,
	// capacity weight, GOARCH, rng stream version, warm-state builds.
	WorkerCapabilities = coordinator.Capabilities
	// WorkerDaemonOptions configures RunWorkerDaemon's registration loop.
	WorkerDaemonOptions = coordinator.DaemonOptions
)

// NewWorkerRegistry builds a registry and starts its eviction loop;
// Close stops it. Mount Handler() wherever the coordinator listens and
// point `experiments -worker-daemon` (or RunWorkerDaemon) at it.
func NewWorkerRegistry(opts WorkerRegistryOptions) *WorkerRegistry {
	return coordinator.NewRegistry(opts)
}

// RunWorkerDaemon runs the registration half of a persistent worker
// next to its serving listener: register with the registry, heartbeat
// at the granted cadence, re-register with backoff after evictions or
// registry restarts. Returns when ctx ends, or immediately on a
// permanent rejection (HTTP 409: a foreign or absent rng stream version
// or GOARCH).
func RunWorkerDaemon(ctx context.Context, opts WorkerDaemonOptions) error {
	return coordinator.RunDaemon(ctx, opts)
}

// ProbeWorker fetches a worker's /v1/healthz capability envelope — a
// liveness and capability check for operators and schedulers.
func ProbeWorker(ctx context.Context, baseURL string) (WorkerCapabilities, error) {
	return coordinator.ProbeWorker(ctx, nil, baseURL)
}

// WorkerHandler returns the worker side of the versioned dispatch API:
// POST /v1/run executes one shard and answers a binary+gzip report
// envelope (checkpointed prefix on drain), and GET /v1/healthz answers
// capability probes; every other path answers
// 404. Mount it on the listener a persistent worker advertises
// (RunWorkerDaemon registers that URL); ctx cancellation drains
// in-flight shards at their next chunk boundary.
func WorkerHandler(ctx context.Context) http.Handler {
	return coordinator.Handler(ctx)
}

// Fleet is a configured worker fleet: the one distributed entry point.
// Build it with NewFleet, then Run jobs over it; with a store, running a
// job again continues its journaled campaign. A Fleet is reusable
// across jobs; elastic membership (WithRegistry) is re-read
// continuously while a job runs.
type Fleet struct {
	fleet coordinator.Fleet
	opts  coordinator.Options
}

// fleetConfig collects what the FleetOptions set before NewFleet
// freezes it into a Fleet.
type fleetConfig struct {
	members  []coordinator.Member
	registry *coordinator.Registry
	opts     coordinator.Options
}

// FleetOption configures NewFleet.
type FleetOption func(*fleetConfig)

// WithInProcessWorkers adds n weight-1 workers executing in this
// process — the zero-infrastructure fleet.
func WithInProcessWorkers(n int) FleetOption {
	return func(c *fleetConfig) {
		for _, t := range coordinator.InProcessFleet(n) {
			c.members = append(c.members, coordinator.Member{Transport: t})
		}
	}
}

// WithWorkerURLs adds one weight-1 HTTP worker per base URL — long
// lived `experiments -serve` / `-worker-daemon` processes.
func WithWorkerURLs(urls ...string) FleetOption {
	return func(c *fleetConfig) {
		for _, t := range coordinator.HTTPFleet(urls...) {
			c.members = append(c.members, coordinator.Member{Transport: t})
		}
	}
}

// WithWorkers adds explicit weight-1 transports (custom Transport
// implementations included).
func WithWorkers(ts ...WorkerTransport) FleetOption {
	return func(c *fleetConfig) {
		for _, t := range ts {
			c.members = append(c.members, coordinator.Member{Transport: t})
		}
	}
}

// WithWeighted adds one worker with an explicit capacity weight: each
// round's shard split hands a weight-2 member about twice the runs of a
// weight-1 member. Weights move load, never results.
func WithWeighted(weight float64, t WorkerTransport) FleetOption {
	return func(c *fleetConfig) {
		c.members = append(c.members, coordinator.Member{Weight: weight, Transport: t})
	}
}

// WithRegistry makes the fleet elastic: membership follows the
// registry's live view — persistent workers that register are admitted
// mid-campaign, workers whose heartbeats stop are evicted. Explicit
// workers from the other options ride alongside as static members.
func WithRegistry(reg *WorkerRegistry) FleetOption {
	return func(c *fleetConfig) { c.registry = reg }
}

// WithProgress observes fleet events (dispatches, results, retries,
// joins, evictions, banked shards, completed rounds).
func WithProgress(fn func(FanOutEvent)) FleetOption {
	return func(c *fleetConfig) { c.opts.Progress = fn }
}

// WithStore journals full shard Reports in the artifact store, one
// append-only journal per campaign: a re-run replays it and dispatches
// only the runs it does not cover, so repeats become cache hits and Run
// picks up an interrupted campaign. The journal is keyed by what a
// run's bits depend on, so a re-run with another Runs, Workers or
// precision block still finds it.
func WithStore(st *ArtifactStore) FleetOption {
	return func(c *fleetConfig) { c.opts.Store = st }
}

// WithShardsPerWorker oversplits each round into n shards per alive
// worker (default 2), so retries move fractions of a round.
func WithShardsPerWorker(n int) FleetOption {
	return func(c *fleetConfig) { c.opts.ShardsPerWorker = n }
}

// WithDispatchTimeout bounds one dispatch attempt; 0 (the default)
// disables the bound.
func WithDispatchTimeout(d time.Duration) FleetOption {
	return func(c *fleetConfig) { c.opts.DispatchTimeout = d }
}

// WithRetryBudget sets the failure limits: maxAttempts failed
// dispatches fail a shard's job, workerFailLimit failed dispatches
// remove a worker (<=0 keeps the default of 3 and 2).
func WithRetryBudget(maxAttempts, workerFailLimit int) FleetOption {
	return func(c *fleetConfig) {
		c.opts.MaxAttempts = maxAttempts
		c.opts.WorkerFailLimit = workerFailLimit
	}
}

// WithoutSpeculation disables straggler re-dispatch (on by default;
// duplicates are bit-identical, so speculation is exact).
func WithoutSpeculation() FleetOption {
	return func(c *fleetConfig) { c.opts.NoSpeculation = true }
}

// NewFleet builds a worker fleet from options: explicit workers
// (frozen membership), a registry (elastic membership), or both. It
// errors when no option contributes any worker source — an empty
// static fleet could never run anything.
func NewFleet(options ...FleetOption) (*Fleet, error) {
	var c fleetConfig
	for _, opt := range options {
		opt(&c)
	}
	if c.registry != nil {
		if len(c.members) > 0 {
			c.registry.AddMembers(c.members...)
		}
		return &Fleet{fleet: c.registry, opts: c.opts}, nil
	}
	if len(c.members) == 0 {
		return nil, errors.New("chaffmec: NewFleet needs workers (WithInProcessWorkers, WithWorkerURLs, ...) or a registry (WithRegistry)")
	}
	return &Fleet{fleet: coordinator.Static(c.members...), opts: c.opts}, nil
}

// Run fans one whole job out over the fleet: each round of the job's
// plan is split into contiguous shards sized by the members' capacity
// weights, failures and stragglers retry elsewhere, and the merged
// Report is bit-identical (up to summed wall clock) to RunJob's —
// SE-targeted adaptive rounds included. Like RunAdaptiveJob it returns
// the accumulated partial of the completed rounds alongside any error.
// With a store (WithStore) the campaign's journal serves whatever
// earlier runs of this job finished; the finished Report is still
// bit-for-bit the uninterrupted run's.
func (f *Fleet) Run(ctx context.Context, job Job) (*Report, error) {
	return coordinator.RunFleet(ctx, job, f.fleet, f.opts)
}

// RunScenario executes one scenario spec whole and digests the report.
func RunScenario(sp ScenarioSpec) (*ScenarioResult, error) { return scenario.Run(sp) }

// RunScenarioFile loads a JSON scenario config and runs every entry.
func RunScenarioFile(path string) ([]*ScenarioResult, error) { return scenario.RunFile(path) }

// ArtifactStore is the content-addressed on-disk store for derived
// artifacts: fitted TraceLabs and campaign journals, keyed by the
// canonical hash of what produced them (spec JSON, seed stream
// version). Re-runs of the same experiment become cache hits.
type ArtifactStore = store.Store

// EnvStore names the environment variable that, when set to a
// directory, opens the process-wide default artifact store at startup
// consumers opt in with (cmd/experiments -store does the same).
const EnvStore = store.EnvStore

// OpenStore opens (creating if needed) an artifact store rooted at dir.
func OpenStore(dir string) (*ArtifactStore, error) { return store.Open(dir) }

// DefaultStore returns the process-wide artifact store: the one
// SetDefaultStore installed, else $CHAFFMEC_STORE opened on first use,
// else nil (persistence disabled — the hermetic default).
func DefaultStore() *ArtifactStore { return store.Default() }

// SetDefaultStore installs (or, with nil, disables) the process-wide
// artifact store consulted by trace-lab fitting and the coordinator.
func SetDefaultStore(s *ArtifactStore) { store.SetDefault(s) }

// Trace-driven pipeline re-exports.
type (
	// TraceConfig parameterises the synthetic-taxi trace pipeline.
	TraceConfig = figures.TraceConfig
	// TraceLab is the fitted trace-driven experiment environment.
	TraceLab = figures.TraceLab
)

// BuildTraceLab generates synthetic taxi traces, quantises them into
// Voronoi cells and fits the empirical mobility chain (Section VII-B).
func BuildTraceLab(cfg TraceConfig) (*TraceLab, error) { return figures.BuildTraceLab(cfg) }

// DefaultTraceConfig mirrors the paper's extraction (174 nodes, 100 min).
func DefaultTraceConfig() TraceConfig { return figures.DefaultTraceConfig() }
