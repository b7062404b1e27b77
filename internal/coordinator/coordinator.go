// Package coordinator is the distributed fan-out layer of the one
// experiment API: it takes one precision-carrying Job, splits each
// round of its Plan into contiguous engine.Span shards, dispatches them
// to a fleet of workers over pluggable Transports (in-process, HTTP),
// journals the Report partials that come back, retries failed shards on
// other workers (excluding the ones that failed them, removing workers
// that keep failing), speculatively re-dispatches
// stragglers to idle workers, and merges — producing a Report provably
// bit-identical to the single-process run of the same Job.
//
// The fleet itself is elastic: the dispatcher consumes the dynamic
// Fleet interface, so membership may change mid-campaign. Persistent
// workers (`experiments -worker-daemon`) register with the Registry,
// announce capacity weights that drive unequal shard shares, heartbeat,
// and are admitted or evicted between dispatches; a static []Transport
// list is just the frozen special case (StaticOf). With an artifact
// store, every campaign journals its shard results, and a re-run of the
// same job continues from that journal.
//
// The exactness argument stacks three established guarantees: every
// run's streams are pure functions of (seed, run index) (internal/rng),
// the aggregates are position-aware dyadic reducers so any contiguous
// decomposition merges bit-for-bit (internal/engine), and the round
// boundaries come from the same scenario.Plan a single process would
// follow (RunFleet drives scenario.RunRounds, the round loop a single
// process runs too) — including SE-targeted adaptive extension, where each round's
// schedule depends only on the (deterministic) accumulated report. A
// retried or duplicated shard therefore returns the identical bytes,
// which is what makes retry-until-merged safe rather than approximate —
// and what makes join/leave/crash churn harmless: membership only moves
// WHERE runs execute, never what they compute.
package coordinator

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"time"

	"chaffmec/internal/engine"
	"chaffmec/internal/report"
	"chaffmec/internal/rng"
	"chaffmec/internal/scenario"
	"chaffmec/internal/store"
)

// Options tunes one fan-out.
type Options struct {
	// ShardsPerWorker oversplits each round into this many shards per
	// alive worker (default 2), so a retry or straggler re-dispatch
	// moves a fraction of the round, not all of it.
	ShardsPerWorker int
	// MaxAttempts caps FAILED dispatch attempts per shard (default 3);
	// a shard exhausting it fails the job.
	MaxAttempts int
	// WorkerFailLimit removes a worker from the fleet after this many
	// failed dispatches (default 2).
	WorkerFailLimit int
	// NoSpeculation disables straggler re-dispatch (an idle worker
	// picking up a shard that is still in flight elsewhere; the first
	// result wins and the loser is cancelled). On by default because
	// shard results are bit-deterministic, so duplicates are exact.
	NoSpeculation bool
	// DispatchTimeout bounds one dispatch attempt; a dispatch
	// exceeding it is cancelled, counted as that worker's failure and
	// retried elsewhere — the escape hatch from a worker that hangs
	// without dying when no idle worker is left to speculate. 0 (the
	// default) disables it: shard durations are workload-dependent and
	// a too-tight bound would fail healthy slow shards.
	DispatchTimeout time.Duration
	// Progress observes coordinator events (dispatches, results,
	// retries, joins, evictions, dead workers, completed rounds). Runs
	// on the driving goroutine.
	Progress func(Event)
	// Store journals full shard Reports in a content-addressed
	// artifact store: one append-only journal per campaign, one record
	// per shard result — the envelope bytes the worker sent when its
	// transport keeps them (EnvelopeReporter), the report encoded
	// otherwise. The journal is keyed by what a run's bits depend on:
	// the spec without Runs, Workers and Precision, the stream version
	// and GOARCH. Records are appended off the dispatch loop and are
	// all in the store before the round's EventRound and before
	// RunFleet returns. A campaign replays its journal once at the
	// start, and every record inside a round of the current schedule
	// resolves without touching a worker — re-running an interrupted,
	// repeated, extended or re-targeted campaign only computes the
	// missing runs. A spec with an injected Chain or Gamma, which the
	// key cannot see, is refused when a store is set. Nil falls back
	// to the process default (store.Default(); usually nil too,
	// disabling the journal).
	Store *store.Store
}

func (o Options) normalized() Options {
	if o.ShardsPerWorker <= 0 {
		o.ShardsPerWorker = 2
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	if o.WorkerFailLimit <= 0 {
		o.WorkerFailLimit = 2
	}
	return o
}

// EventKind classifies coordinator progress events.
type EventKind string

// The coordinator's event stream.
const (
	// EventDispatch: a shard was handed to a worker.
	EventDispatch EventKind = "dispatch"
	// EventResult: a worker returned its full shard.
	EventResult EventKind = "result"
	// EventPartial: a worker died mid-shard but checkpointed a prefix;
	// the remainder is requeued.
	EventPartial EventKind = "partial"
	// EventFailure: a dispatch failed; the shard is requeued excluding
	// the worker.
	EventFailure EventKind = "failure"
	// EventWorkerDead: a worker exceeded WorkerFailLimit and left the
	// fleet.
	EventWorkerDead EventKind = "worker-dead"
	// EventWorkerJoin: a fleet member was admitted to the dispatch pool
	// (initial members included — every admission is a join).
	EventWorkerJoin EventKind = "worker-join"
	// EventWorkerLeft: a fleet member disappeared from the membership
	// (heartbeat-timeout eviction, deregistration); in-flight work on
	// it still counts if it lands, and queued work re-plans elsewhere.
	EventWorkerLeft EventKind = "worker-left"
	// EventRound: an adaptive (or the single fixed) round completed and
	// was merged into the accumulated report; with a store, every
	// EventResult of the round is already a journal record.
	EventRound EventKind = "round"
	// EventBanked: a run range was satisfied from the campaign's
	// journal in the artifact store without dispatching to any worker
	// (one event per journal record the round uses).
	EventBanked EventKind = "banked"
)

// Event is one coordinator progress observation.
type Event struct {
	Kind   EventKind
	Worker string       // the transport's Name (shard and membership events)
	Shard  engine.Shard // the affected run range (shard events)
	Round  scenario.Round
	Err    error // EventFailure / EventWorkerDead cause
	// Wire is the dispatch's wire cost (EventResult / EventPartial,
	// when the transport reports it — in-process fleets have no wire).
	Wire WireStats
}

type workerState struct {
	t        Transport
	id       string
	weight   float64
	busy     bool
	dead     bool // exhausted its failure budget (never rejoins)
	left     bool // disappeared from the fleet membership (may rejoin)
	failures int
}

func (w *workerState) usable() bool { return !w.dead && !w.left }

type shardState struct {
	span      engine.Shard
	pref      int // worker index the weighted split planned it for (-1: none)
	resolved  bool
	inflight  int
	failures  int
	lastErr   error        // the latest failed dispatch's cause
	attempted map[int]bool // worker idx ever handed this shard
	failed    map[int]bool // worker idx that failed it (never retried there)
}

func newShardState(span engine.Shard, pref int) *shardState {
	return &shardState{span: span, pref: pref, attempted: map[int]bool{}, failed: map[int]bool{}}
}

type result struct {
	wi       int
	s        *shardState
	rep      *report.Report
	envelope []byte // the bytes rep decoded from, if the transport kept them
	err      error
}

// RunFleet fans one whole Job out over an elastic fleet: membership is
// re-read between dispatches (joiners are admitted mid-round, evicted
// members stop receiving work), each round's run range is split into
// contiguous shards sized by the members' capacity weights, and the
// merged Report is bit-identical to the single-process run — churn
// moves work around, never changes results. With a dynamic fleet
// (Fleet.Updates non-nil) running out of workers WAITS for a join
// instead of failing; cancel ctx to give up. Like the scenario layer's
// drivers it returns the accumulated partial of the COMPLETED rounds
// alongside any error (cancellation included). With a store
// (Options.Store), the campaign's journal is the checkpoint: a re-run
// of the same job — after a crash or a cancel, or with another Runs,
// Workers or precision block — computes only the runs the journal does
// not hold, and finishes bit-for-bit as the uninterrupted run of the
// job it was given.
func RunFleet(ctx context.Context, job scenario.Job, fleet Fleet, opts Options) (*report.Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if fleet == nil {
		return nil, errors.New("coordinator: no fleet")
	}
	if !job.Shard.IsWhole() {
		return nil, fmt.Errorf("coordinator: job already selects shard %s; the coordinator owns the whole range", job.Shard)
	}
	plan, err := scenario.NewPlan(job.Spec)
	if err != nil {
		return nil, err
	}
	c := &run{job: job, opts: opts.normalized(), fleet: fleet, byID: map[string]int{}}
	c.st = c.opts.Store
	if c.st == nil {
		c.st = store.Default()
	}
	if c.st != nil {
		// Neither injection is in the spec's JSON, so a journal keyed by
		// it would hand one campaign's records to another.
		if job.Spec.Chain != nil || job.Spec.Gamma != nil {
			return nil, errors.New("coordinator: a spec with an injected Chain or Gamma cannot key a campaign journal; run it without a store")
		}
		if c.key, err = campaignKey(job.Spec, runtime.GOARCH); err != nil {
			return nil, err
		}
		if c.journal, err = c.st.Journal(storeKindCampaign, c.key); err != nil {
			return nil, err
		}
	}
	c.replay(plan.FixedRuns())
	c.sync()
	var progress scenario.Progress
	if c.opts.Progress != nil {
		progress = func(r scenario.Round) { c.event(Event{Kind: EventRound, Round: r}) }
	}
	return scenario.RunRounds(ctx, job, c.round, progress)
}

type run struct {
	job     scenario.Job
	opts    Options
	fleet   Fleet
	workers []*workerState   // grows on joins; indexes are stable forever
	byID    map[string]int   // member ID -> workers index
	st      *store.Store     // nil: no journal
	key     string           // the campaign journal's key
	journal *store.Journal   // appends the rounds' records, one round at a time
	banked  *report.Coverage // the journal's valid records, replayed once
}

// sync reconciles the dispatcher's worker table with the fleet's
// current membership. Worker slots are append-only — a departed member
// keeps its index (and its failure history) so in-flight results and
// per-worker bookkeeping stay attached; rejoining under the same ID
// reactivates the slot, a fresh registration gets a fresh one.
func (c *run) sync() {
	members := c.fleet.Members()
	seen := make(map[string]bool, len(members))
	for _, m := range members {
		seen[m.ID] = true
		weight := m.Weight
		if weight <= 0 {
			weight = 1
		}
		if wi, ok := c.byID[m.ID]; ok {
			w := c.workers[wi]
			w.weight = weight
			if w.left {
				w.left = false
				c.event(Event{Kind: EventWorkerJoin, Worker: w.t.Name()})
			}
			continue
		}
		w := &workerState{t: m.Transport, id: m.ID, weight: weight}
		c.byID[m.ID] = len(c.workers)
		c.workers = append(c.workers, w)
		c.event(Event{Kind: EventWorkerJoin, Worker: w.t.Name()})
	}
	for _, w := range c.workers {
		if !w.left && !seen[w.id] {
			w.left = true
			c.event(Event{Kind: EventWorkerLeft, Worker: w.t.Name()})
		}
	}
}

// storeKindCampaign namespaces campaign journals in the artifact
// store.
const storeKindCampaign = "campaign"

// campaignKey is a campaign journal's content address: everything a
// shard's bits are a pure function of besides its run range, which each
// record carries itself. That is the spec's JSON without Runs, Workers
// and Precision — they set how many runs execute and how, never what
// any run computes — the rng stream version the runs draw from, and the
// GOARCH that computed them (Go fuses x*y+z into one FMA on some
// architectures, so another one may differ in the low bits).
func campaignKey(sp scenario.Spec, arch string) (string, error) {
	sp.Runs, sp.Workers, sp.Precision = 0, 0, nil
	spec, err := json.Marshal(sp)
	if err != nil {
		return "", err
	}
	return store.Key(storeKindCampaign, string(spec), rng.StreamVersion, arch), nil
}

// replay reads the campaign's journal once into c.banked. A record that
// fails to decode, was drawn from another stream version, or overlaps
// the replayed coverage without matching it is skipped: a bad record
// only costs recomputing its runs, never the campaign. The key leaves
// out Runs, Workers and Precision, so a record may carry other values
// of them in its spec echo and TotalRuns; both are re-stamped to this
// job's — totalRuns and the echo a shard of it carries — so the
// records merge with the shards the fleet computes.
func (c *run) replay(totalRuns int) {
	c.banked = report.NewCoverage()
	if c.st == nil {
		return
	}
	recs, _ := c.st.Records(storeKindCampaign, c.key) //nolint:errcheck // an unreadable journal only costs a recompute
	var echo []byte
	for _, rec := range recs {
		reps, err := report.DecodeReports(rec)
		if err != nil || len(reps) != 1 || reps[0].Stream != rng.StreamVersion {
			continue
		}
		rep := reps[0]
		if echo == nil {
			if echo, err = c.specEcho(rep.Spec); err != nil {
				continue
			}
		}
		rep.Spec, rep.TotalRuns = echo, totalRuns
		c.banked.Add(rep) //nolint:errcheck // an overlapping record is skipped
	}
}

// specEcho derives this job's spec echo from a journal record's: the
// record's spec under the same key differs from this job's only in the
// fields the key leaves out, and the echo carries them as given, so
// setting them to this job's values yields the bytes a shard of it
// echoes.
func (c *run) specEcho(recorded []byte) ([]byte, error) {
	var sp scenario.Spec
	if err := json.Unmarshal(recorded, &sp); err != nil {
		return nil, err
	}
	sp.Runs, sp.Workers, sp.Precision = c.job.Spec.Runs, c.job.Spec.Workers, c.job.Spec.Precision
	return json.Marshal(sp)
}

// record is one resolved full shard result on its way to the journal:
// the bytes the worker sent, or, from a transport that keeps none, the
// report to encode.
type record struct {
	rep      *report.Report
	envelope []byte
}

// journaler appends one round's records to the campaign's journal on
// its own goroutine, in the order the dispatch loop resolved them, so a
// store write never holds up the next dispatch. The round holds one
// store.Journal handle: its file is opened at the round's first record
// and closed once, when the round ends. Appends are best-effort: a
// failed one only costs a future recompute.
type journaler struct {
	recs chan record
	done chan struct{}
}

// startJournal starts the round's appender; capacity is the round's
// planned shard count, so the dispatch loop's sends rarely wait.
func (c *run) startJournal(capacity int) *journaler {
	jr := &journaler{recs: make(chan record, capacity), done: make(chan struct{})}
	go func() {
		defer close(jr.done)
		defer c.journal.Close() //nolint:errcheck // best-effort
		var buf bytes.Buffer
		for rec := range jr.recs {
			blob := rec.envelope
			if blob == nil {
				buf.Reset()
				if err := report.WriteReportsBinary(&buf, []*report.Report{rec.rep}, true); err != nil {
					continue
				}
				blob = buf.Bytes()
			}
			c.journal.Append(blob) //nolint:errcheck // best-effort
		}
	}()
	return jr
}

// close waits until every record sent is in the store.
func (jr *journaler) close() {
	close(jr.recs)
	<-jr.done
}

func (c *run) event(e Event) {
	if c.opts.Progress != nil {
		c.opts.Progress(e)
	}
}

// aliveWorkers returns the indexes of the workers dispatchable right
// now: present in the membership and under their failure budget.
func (c *run) aliveWorkers() []int {
	var out []int
	for wi, w := range c.workers {
		if w.usable() {
			out = append(out, wi)
		}
	}
	return out
}

// round executes the run range [start, end) across the fleet and
// returns it merged into one report.
func (c *run) round(ctx context.Context, start, end int) (*report.Report, error) {
	updates := c.fleet.Updates()
	c.sync()
	// A dynamic fleet may legitimately be empty between campaigns —
	// wait for capacity. A static one cannot grow, so fail fast.
	for len(c.aliveWorkers()) == 0 {
		if updates == nil {
			return nil, errors.New("coordinator: all workers dead")
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-updates:
			c.sync()
		}
	}
	rctx, cancelAll := context.WithCancel(ctx)
	defer cancelAll()

	// The weighted split: each alive worker gets ShardsPerWorker slots
	// sized by its capacity weight, so a weight-2 member is planned
	// about twice the runs per round. Shard boundaries never change
	// results — only who computes what, and how evenly.
	alive := c.aliveWorkers()
	var weights []float64
	var owners []int
	for _, wi := range alive {
		for k := 0; k < c.opts.ShardsPerWorker; k++ {
			weights = append(weights, c.workers[wi].weight)
			owners = append(owners, wi)
		}
	}
	// Journaled run ranges resolve before any dispatch: a re-run of an
	// interrupted or repeated campaign only computes what is missing.
	// The replayed records are disjoint, so adding them cannot fail.
	cov := report.NewCoverage()
	for _, rep := range c.banked.Parts() {
		if rep.RunStart >= start && rep.RunStart+rep.RunCount <= end {
			cov.Add(rep) //nolint:errcheck // disjoint by construction
			c.event(Event{Kind: EventBanked, Shard: engine.Span(rep.RunStart, rep.RunStart+rep.RunCount)})
		}
	}
	// Each planned shard dispatches what the journal leaves uncovered of
	// it; a zero share (range shorter than slots) has no gaps.
	var shards []*shardState
	for i, span := range scenario.SplitSpanWeighted(start, end, weights) {
		for _, gap := range cov.Gaps(span.Start, span.End) {
			shards = append(shards, newShardState(engine.Span(gap[0], gap[1]), owners[i]))
		}
	}
	remaining := len(shards)
	inflight := 0
	var jr *journaler
	if c.st != nil {
		jr = c.startJournal(len(shards))
		defer jr.close()
	}
	// Sized for the planned fleet; a worker has at most one outstanding
	// dispatch, so sends only block momentarily if the fleet grows
	// mid-round — and every send is matched by a receive (the select
	// loop or drain), so nothing deadlocks or leaks.
	results := make(chan result, len(c.workers)+len(shards))
	cancels := map[*shardState]map[int]context.CancelFunc{}

	dispatch := func(wi int, s *shardState) {
		w := c.workers[wi]
		w.busy = true
		s.inflight++
		s.attempted[wi] = true
		inflight++
		dctx, dcancel := context.WithCancel(rctx)
		if c.opts.DispatchTimeout > 0 {
			dctx, dcancel = context.WithTimeout(rctx, c.opts.DispatchTimeout)
		}
		if cancels[s] == nil {
			cancels[s] = map[int]context.CancelFunc{}
		}
		cancels[s][wi] = dcancel
		c.event(Event{Kind: EventDispatch, Worker: w.t.Name(), Shard: s.span})
		go func() {
			rep, err := w.t.Run(dctx, scenario.Job{Spec: c.job.Spec, Shard: s.span})
			r := result{wi: wi, s: s, rep: rep, err: err}
			if er, ok := w.t.(EnvelopeReporter); ok && err == nil {
				r.envelope = er.LastEnvelope()
			}
			results <- r
		}()
	}
	resolve := func(s *shardState) {
		s.resolved = true
		remaining--
		for _, dc := range cancels[s] {
			dc() // cancel straggling duplicates; their results are discarded
		}
		delete(cancels, s)
	}
	drain := func() {
		cancelAll()
		for inflight > 0 {
			r := <-results
			inflight--
			c.workers[r.wi].busy = false
		}
	}
	defer drain()

	for remaining > 0 {
		for wi, w := range c.workers {
			if !w.usable() || w.busy {
				continue
			}
			if s := c.pickShard(shards, wi); s != nil {
				dispatch(wi, s)
			}
		}
		if inflight == 0 && updates == nil {
			// A static fleet cannot gain the worker an unresolved shard
			// needs; a dynamic one falls through and waits for a join.
			for _, s := range shards {
				if !s.resolved {
					err := fmt.Errorf("coordinator: shard %s: no worker left to run it (%d failures, %d alive workers; round still missing runs %s)",
						s.span, s.failures, len(c.aliveWorkers()), gapList(cov.Gaps(start, end)))
					if s.lastErr != nil {
						err = fmt.Errorf("%w; last failure: %w", err, s.lastErr)
					}
					return nil, err
				}
			}
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-updates:
			c.sync()
		case r := <-results:
			inflight--
			w := c.workers[r.wi]
			w.busy = false
			r.s.inflight--
			if dc := cancels[r.s][r.wi]; dc != nil {
				dc()
				delete(cancels[r.s], r.wi)
			}
			if r.s.resolved {
				continue // a replacement already resolved this shard
			}
			full := r.s.span.End - r.s.span.Start
			switch {
			case r.err == nil && prefixOf(r.rep, r.s.span) && r.rep.RunCount == full:
				// Results from since-departed workers still count: the
				// bytes are bit-deterministic wherever they were computed.
				if _, err := cov.Add(r.rep); err != nil {
					return nil, err
				}
				if jr != nil {
					jr.recs <- record{rep: r.rep, envelope: r.envelope}
				}
				resolve(r.s)
				c.event(Event{Kind: EventResult, Worker: w.t.Name(), Shard: r.s.span, Wire: lastWire(w.t)})
			case r.err != nil && prefixOf(r.rep, r.s.span) && r.rep.RunCount > 0 && r.rep.RunCount < full:
				// The worker died mid-shard but checkpointed a prefix:
				// bank it, requeue only the remainder — elsewhere.
				if _, err := cov.Add(r.rep); err != nil {
					return nil, err
				}
				resolve(r.s)
				rest := newShardState(engine.Span(r.s.span.Start+r.rep.RunCount, r.s.span.End), -1)
				rest.failed[r.wi] = true
				shards = append(shards, rest)
				remaining++
				c.workerFailed(r.wi, r.err)
				c.event(Event{Kind: EventPartial, Worker: w.t.Name(), Shard: r.s.span, Err: r.err, Wire: lastWire(w.t)})
			case errors.Is(r.err, ErrBadJob):
				// The job, not the worker, is at fault: every worker
				// would refuse it.
				return nil, fmt.Errorf("coordinator: shard %s: %w", r.s.span, r.err)
			default:
				if ctx.Err() != nil {
					return nil, ctx.Err() // cancelled under the worker, not its failure
				}
				err := r.err
				if err == nil && r.rep == nil {
					err = fmt.Errorf("coordinator: %s returned no report for shard %s", w.t.Name(), r.s.span)
				} else if err == nil {
					err = fmt.Errorf("coordinator: %s returned runs [%d,%d) for shard %s",
						w.t.Name(), r.rep.RunStart, r.rep.RunStart+r.rep.RunCount, r.s.span)
				}
				r.s.failures++
				r.s.lastErr = err
				r.s.failed[r.wi] = true
				c.workerFailed(r.wi, err)
				if r.s.failures >= c.opts.MaxAttempts {
					return nil, fmt.Errorf("coordinator: shard %s failed %d times, giving up: %w",
						r.s.span, r.s.failures, err)
				}
				c.event(Event{Kind: EventFailure, Worker: w.t.Name(), Shard: r.s.span, Err: err})
			}
		}
	}
	return cov.Merged()
}

// pickShard chooses work for an idle worker: first a queued shard the
// weighted split planned for this worker, then any queued shard it has
// not failed, then — unless speculation is off — a straggling in-flight
// shard it has not yet attempted.
func (c *run) pickShard(shards []*shardState, wi int) *shardState {
	for _, s := range shards {
		if !s.resolved && s.inflight == 0 && s.pref == wi && !s.failed[wi] {
			return s
		}
	}
	for _, s := range shards {
		if !s.resolved && s.inflight == 0 && !s.failed[wi] {
			return s
		}
	}
	if c.opts.NoSpeculation {
		return nil
	}
	for _, s := range shards {
		if !s.resolved && s.inflight == 1 && !s.attempted[wi] {
			return s
		}
	}
	return nil
}

// workerFailed books one failed dispatch against a worker, removing it
// from the fleet at WorkerFailLimit.
func (c *run) workerFailed(wi int, cause error) {
	w := c.workers[wi]
	w.failures++
	if !w.dead && w.failures >= c.opts.WorkerFailLimit {
		w.dead = true
		c.event(Event{Kind: EventWorkerDead, Worker: w.t.Name(), Err: cause})
	}
}

// lastWire reads a transport's wire cost for the dispatch that just
// returned (zero for transports without a wire, e.g. in-process).
func lastWire(t Transport) WireStats {
	if wr, ok := t.(WireReporter); ok {
		return wr.LastWire()
	}
	return WireStats{}
}

// prefixOf reports whether rep covers a (possibly complete) prefix of
// the dispatched span — the only shapes a worker may legally return.
func prefixOf(rep *report.Report, span engine.Shard) bool {
	return rep != nil && rep.RunStart == span.Start && rep.RunCount <= span.End-span.Start
}

// gapList formats uncovered run ranges for failure messages.
func gapList(gaps [][2]int) string {
	if len(gaps) == 0 {
		return "none"
	}
	parts := make([]string, 0, len(gaps))
	for _, g := range gaps {
		parts = append(parts, fmt.Sprintf("[%d,%d)", g[0], g[1]))
	}
	return strings.Join(parts, " ")
}
