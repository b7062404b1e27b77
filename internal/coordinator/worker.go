package coordinator

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"slices"

	"chaffmec/internal/engine"
	"chaffmec/internal/report"
	"chaffmec/internal/rng"
	"chaffmec/internal/scenario"
)

// EnvCrash is the fault-injection knob CI and tests use to prove the
// retry path: a worker process started with CHAFFMEC_WORKER_CRASH=exit
// aborts (exit 1, no output) after executing its first chunk —
// "mid-shard", deterministically. Value "partial" instead simulates a
// SIGTERM: the prefix checkpoint is written and the worker exits with
// ExitPartial. Unset (production) does nothing.
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

// RunShard executes exactly the job's shard in contiguous chunks of
// about chunk runs (0: a default of the shard split into workerChunks
// pieces), extending a partial report after each chunk. On error —
// cancellation (SIGTERM in a worker process) included — the prefix
// report of the COMPLETED chunks is returned alongside the error: a
// resumable checkpoint covering [start, k), exactly PR-style round
// checkpointing applied inside one shard. A whole-range job (no shard)
// is delegated to the scenario layer's own (adaptive, resumable) round
// loop.
func RunShard(ctx context.Context, job scenario.Job, chunk int) (*report.Report, error) {
	return runShardChunks(ctx, job, chunk, nil)
}

// runShardChunks is RunShard with a test hook invoked after each
// completed chunk (the injected-crash seam).
func runShardChunks(ctx context.Context, job scenario.Job, chunk int, afterChunk func(i int)) (*report.Report, error) {
	if err := job.Shard.Validate(); err != nil {
		return nil, err
	}
	if job.Shard.IsWhole() {
		return scenario.RunAdaptive(ctx, job, nil)
	}
	plan, err := scenario.NewPlan(job.Spec)
	if err != nil {
		return nil, err
	}
	start, end := job.Shard.Range(plan.FixedRuns())
	if chunk <= 0 {
		chunk = (end - start + workerChunks - 1) / workerChunks
		if chunk < minChunk {
			chunk = minChunk
		}
		if chunk > maxChunk {
			chunk = maxChunk
		}
	}
	var acc *report.Report
	for i, at := 0, start; at < end; i, at = i+1, at+chunk {
		hi := at + chunk
		if hi > end {
			hi = end
		}
		rep, err := scenario.RunJob(ctx, scenario.Job{Spec: job.Spec, Shard: engine.Span(at, hi)})
		if err != nil {
			return acc, err // acc: the completed-chunk prefix
		}
		if acc == nil {
			acc = rep
		} else if err := acc.Extend(rep); err != nil {
			return acc, err
		}
		if afterChunk != nil {
			afterChunk(i)
		}
	}
	return acc, nil
}

// RunWorker is the worker half of the Subprocess transport — the body
// of `cmd/experiments -worker`: ONE Job as JSON on in, its Report on
// out as a count-1 binary+gzip envelope. Malformed input
// (bad JSON, unknown kind, invalid shard or precision block) returns
// an error wrapping ErrBadJob without running anything. A cancellation
// (SIGTERM) mid-shard writes the resumable prefix checkpoint to out and
// returns an error wrapping ErrPartial; the caller maps these to
// ExitBadJob/ExitPartial.
func RunWorker(ctx context.Context, in io.Reader, out io.Writer) error {
	dec := json.NewDecoder(in)
	dec.DisallowUnknownFields()
	var job scenario.Job
	if err := dec.Decode(&job); err != nil {
		return fmt.Errorf("%w: parsing stdin: %v", ErrBadJob, err)
	}
	if job.Spec.Kind == "" {
		return fmt.Errorf("%w: spec needs a kind", ErrBadJob)
	}
	if !slices.Contains(scenario.Kinds(), job.Spec.Kind) {
		return fmt.Errorf("%w: unknown kind %q", ErrBadJob, job.Spec.Kind)
	}
	if err := job.Shard.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadJob, err)
	}
	if _, err := scenario.NewPlan(job.Spec); err != nil {
		return fmt.Errorf("%w: %v", ErrBadJob, err)
	}
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	rep, err := runShardChunks(runCtx, job, 0, crashFromEnv(cancel))
	if err != nil {
		if rep != nil && rep.RunCount > 0 {
			if werr := writeReportWire(out, rep); werr != nil {
				return fmt.Errorf("writing partial checkpoint: %w", werr)
			}
			return fmt.Errorf("%w: wrote runs [%d,%d): %v",
				ErrPartial, rep.RunStart, rep.RunStart+rep.RunCount, err)
		}
		return err
	}
	return writeReportWire(out, rep)
}

// crashFromEnv resolves the EnvCrash fault injection into a chunk
// hook; cancel aborts the worker's shard context the way SIGTERM does.
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
			// at the next chunk boundary and RunWorker checkpoints the
			// prefix, exiting with ExitPartial.
			fmt.Fprintln(os.Stderr, "worker: injected termination (CHAFFMEC_WORKER_CRASH=partial)")
			cancel()
		}
	}
}

// writeReportWire writes one report as the worker wire: a count-1
// binary+gzip envelope.
func writeReportWire(w io.Writer, rep *report.Report) error {
	return report.WriteReportsBinary(w, []*report.Report{rep}, true)
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

// Handler serves the worker HTTP API of `experiments -serve` and
// `-worker-daemon`:
//
//	POST /v1/run      Job JSON in, a count-1 binary+gzip report envelope
//	                  out, whatever the Accept header says (206 + prefix
//	                  report when the worker is terminated mid-shard)
//	GET  /v1/healthz  capability envelope: goarch, rng stream version,
//	                  warm-state build counter
//
// ctx is the worker process's lifetime (SIGTERM cancels it): in-flight
// shards abort at the next chunk boundary and respond with their
// checkpointed prefix, so a drained worker hands its work back instead
// of losing it.
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
		// The shard aborts when either the request is abandoned or the
		// worker process is asked to drain.
		runCtx, cancel := context.WithCancel(r.Context())
		defer cancel()
		stop := context.AfterFunc(ctx, cancel)
		defer stop()
		rep, err := RunShard(runCtx, job, 0)
		if err != nil && (rep == nil || rep.RunCount == 0) {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", mimeReports)
		if err != nil { // the checkpointed prefix
			w.WriteHeader(http.StatusPartialContent)
		}
		writeReportWire(w, rep) //nolint:errcheck // response already committed
	})
	return mux
}
