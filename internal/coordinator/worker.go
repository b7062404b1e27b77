package coordinator

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"slices"
	"strings"

	"chaffmec/internal/chaff"
	"chaffmec/internal/engine"
	"chaffmec/internal/report"
	"chaffmec/internal/rng"
	"chaffmec/internal/scenario"
)

// EnvCrash is the fault-injection knob CI and tests use to prove the
// retry path: a worker process started with CHAFFMEC_WORKER_CRASH=exit
// aborts (exit 1, no response) after executing the first chunk of a
// dispatch — "mid-shard", deterministically. Value "partial" instead
// simulates a SIGTERM: the dispatch answers 206 with the prefix
// checkpoint of its completed chunks. A stream-free shard is one chunk
// (see runShard), so "partial" answers it whole. Unset (production)
// does nothing.
const EnvCrash = "CHAFFMEC_WORKER_CRASH"

// workerChunks splits a worker's shard into about this many chunks of
// [minChunk, maxChunk] runs each, so an interrupted worker has
// completed chunks to checkpoint — maxChunk bounds how much work a
// SIGTERM can lose even on very large shards. Chunk boundaries never
// change results: the accumulators are position-aware dyadic reducers,
// so any contiguous decomposition extends bit-identically.
const (
	workerChunks = 8
	minChunk     = 8
	maxChunk     = 4096
)

// runShard executes exactly the job's shard in about workerChunks
// contiguous chunks, calling afterChunk (the injected-crash seam; may be
// nil) once each completes, and extends the first chunk's report with
// the others once, at the end. On error — cancellation (SIGTERM in a
// worker process) included — the prefix report of the COMPLETED chunks
// is returned alongside the error: a resumable checkpoint covering
// [start, k), exactly round checkpointing applied inside one shard. A
// stream-free shard (scenario.StreamFree: every run is the same run,
// folded in closed form) has no progress worth checkpointing, so it
// runs as one chunk: it completes whole or fails with no prefix. A
// whole-range job (no shard) is delegated to the scenario layer's own
// (adaptive, resumable) round loop.
func runShard(ctx context.Context, job scenario.Job, afterChunk func(i int)) (*report.Report, error) {
	if job.Shard.IsWhole() {
		return scenario.RunAdaptive(ctx, job, nil)
	}
	plan, err := scenario.NewPlan(job.Spec)
	if err != nil {
		return nil, err
	}
	start, end := job.Shard.Range(plan.FixedRuns())
	chunk := min(max((end-start+workerChunks-1)/workerChunks, minChunk), maxChunk)
	// A spec StreamFree cannot resolve is chunked as usual, and its
	// first chunk reports the kind's own error.
	if free, _ := scenario.StreamFree(job.Spec); free {
		chunk = max(end-start, 1)
	}
	var done []*report.Report
	for i, at := 0, start; at < end; i, at = i+1, at+chunk {
		var rep *report.Report
		if rep, err = scenario.RunJob(ctx, scenario.Job{Spec: job.Spec, Shard: engine.Span(at, min(at+chunk, end))}); err != nil {
			break
		}
		done = append(done, rep)
		if afterChunk != nil {
			afterChunk(i)
		}
	}
	if len(done) == 0 {
		return nil, err
	}
	// A failed Extend leaves the first chunk, itself a prefix, as it was.
	if xerr := done[0].Extend(done[1:]...); xerr != nil {
		return done[0], xerr
	}
	return done[0], err // on error: the completed-chunk prefix
}

// validateJob refuses a job that never was runnable — no kind or an
// unknown one, a strategy name chaff.NewByName does not know, an
// invalid shard, a spec the planner rejects (a bad precision block) —
// with an error wrapping ErrBadJob, before anything runs. An empty
// strategy name is left to the kind, which may read it as "no chaff".
func validateJob(job scenario.Job) error {
	if job.Spec.Kind == "" {
		return fmt.Errorf("%w: spec needs a kind", ErrBadJob)
	}
	if !slices.Contains(scenario.Kinds(), job.Spec.Kind) {
		return fmt.Errorf("%w: unknown kind %q", ErrBadJob, job.Spec.Kind)
	}
	names := append([]string{job.Spec.Strategy}, job.Spec.Strategies...)
	for _, m := range job.Spec.Population {
		names = append(names, m.Strategy)
	}
	for _, name := range names {
		if name != "" && !chaff.Known(name) {
			return fmt.Errorf("%w: unknown strategy %q (known: %s)", ErrBadJob, name, strings.Join(chaff.Names(), ", "))
		}
	}
	if err := job.Shard.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadJob, err)
	}
	if _, err := scenario.NewPlan(job.Spec); err != nil {
		return fmt.Errorf("%w: %v", ErrBadJob, err)
	}
	return nil
}

// asBadJob marks a spec error a kind found while running
// (scenario.ErrBadSpec) as ErrBadJob too: every worker would refuse it.
func asBadJob(err error) error {
	if errors.Is(err, scenario.ErrBadSpec) {
		return fmt.Errorf("%w: %w", ErrBadJob, err)
	}
	return err
}

// crashFromEnv resolves the EnvCrash fault injection into a chunk
// hook; cancel aborts the dispatch's shard context the way SIGTERM does.
func crashFromEnv(cancel context.CancelFunc) func(i int) {
	mode := os.Getenv(EnvCrash)
	if mode == "" {
		return nil
	}
	return func(i int) {
		if i != 0 {
			return
		}
		switch mode {
		case "exit":
			fmt.Fprintln(os.Stderr, "worker: injected crash (CHAFFMEC_WORKER_CRASH=exit)")
			os.Exit(1)
		case "partial":
			// Simulated SIGTERM after the first chunk: the shard aborts
			// at the next chunk boundary and the dispatch answers 206
			// with the prefix.
			fmt.Fprintln(os.Stderr, "worker: injected termination (CHAFFMEC_WORKER_CRASH=partial)")
			cancel()
		}
	}
}

// maxRequestBody bounds the JSON bodies the worker and registry servers
// read. A Job is a small spec plus a shard, and a registration or
// heartbeat is smaller still, so 1 MiB is ample; a larger body is
// refused with 413 before anything runs.
const maxRequestBody = 1 << 20

// decodeRequest decodes a request's JSON body, read through a
// maxRequestBody limit, into v (strict: unknown fields are an error).
// On failure it returns the status to answer with: 413 for an oversized
// body, 400 for a malformed one.
func decodeRequest(w http.ResponseWriter, r *http.Request, v any, strict bool) (int, error) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	if strict {
		dec.DisallowUnknownFields()
	}
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return http.StatusRequestEntityTooLarge, err
		}
		return http.StatusBadRequest, err
	}
	return http.StatusOK, nil
}

// Handler is the one worker body: it serves the worker HTTP API of
// `experiments -serve` and `-worker-daemon` (the children of `-workers
// N` included):
//
//	POST /v1/run      Job JSON in, a count-1 binary+gzip report envelope
//	                  out, whatever the Accept header says (206 + prefix
//	                  report when the worker is terminated mid-shard;
//	                  400 naming ErrBadJob for a job that never was
//	                  runnable: before anything runs, or when its kind
//	                  refuses the spec)
//	GET  /v1/healthz  capability envelope: goarch, rng stream version,
//	                  warm-state build counter
//
// ctx is the worker process's lifetime (SIGTERM cancels it): in-flight
// shards abort at the next chunk boundary and respond with their
// checkpointed prefix, so a drained worker hands its work back instead
// of losing it. A stream-free shard runs as one chunk, so it has no
// prefix: it answers whole, or fails. EnvCrash, read on each dispatch,
// injects the same faults.
func Handler(ctx context.Context) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", mimeJSON)
		json.NewEncoder(w).Encode(Capabilities{ //nolint:errcheck // response already committed
			GOARCH:         runtime.GOARCH,
			Stream:         rng.StreamVersion,
			TraceLabBuilds: scenario.TraceLabBuilds(),
		})
	})
	mux.HandleFunc("/v1/run", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST a Job to /v1/run", http.StatusMethodNotAllowed)
			return
		}
		var job scenario.Job
		if status, err := decodeRequest(w, r, &job, true); err != nil {
			http.Error(w, fmt.Sprintf("%v: %v", ErrBadJob, err), status)
			return
		}
		if err := validateJob(job); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		// The shard aborts when either the request is abandoned or the
		// worker process is asked to drain.
		runCtx, cancel := context.WithCancel(r.Context())
		defer cancel()
		stop := context.AfterFunc(ctx, cancel)
		defer stop()
		rep, err := runShard(runCtx, job, crashFromEnv(cancel))
		if err != nil && (rep == nil || rep.RunCount == 0) {
			status := http.StatusInternalServerError
			if errors.Is(err, scenario.ErrBadSpec) {
				status = http.StatusBadRequest
			}
			http.Error(w, asBadJob(err).Error(), status)
			return
		}
		w.Header().Set("Content-Type", mimeReports)
		if err != nil { // the checkpointed prefix
			w.WriteHeader(http.StatusPartialContent)
		}
		// The one worker wire: a count-1 binary+gzip envelope.
		report.WriteReportsBinary(w, []*report.Report{rep}, true) //nolint:errcheck // response already committed
	})
	return mux
}
