// Package engine is the shared parallel Monte-Carlo executor behind the
// paper's evaluation (Section VII): every experiment in this repository —
// synthetic scenarios, a target alone or among coexisting users
// (internal/sim), MEC substrate episode batches
// (internal/mec) and the figure drivers built on them — repeats a seeded
// run many times and aggregates per-slot metrics. The engine owns the
// concerns those harnesses used to duplicate:
//
//   - Stream derivation: run r of an experiment with base seed s draws all
//     of its randomness from the internal/rng splitmix64 stream
//     rng.Derive(s, r); rng.NewRun(s, r) replays one run's stream by
//     hand. The derivation applies a full golden-ratio avalanche, so
//     adjacent run indices yield decorrelated streams and a run's
//     result depends only on (s, r) — never on scheduling, worker count,
//     or which process executes the run. Stream stability follows
//     internal/rng's contract: fixed for a given rng package version,
//     re-pinned in one commit when the generator changes.
//
//   - Sharding: Options.Shard restricts an experiment to one contiguous
//     sub-range of its global run indices. Because streams are pure
//     functions of (seed, run) and the accumulators (SeriesStats,
//     ScalarStats) are position-aware dyadic reducers, complementary
//     shards executed by different processes and merged with Merge
//     reproduce the single-process aggregate bit-for-bit.
//
//   - Worker pools with per-worker scratch: NewWorker is called once per
//     worker, letting callers hoist detector construction, steady-state
//     lookups and scoring arenas out of the hot path; the RunBlock
//     callback then reuses that state across every block the worker
//     executes. There is one execution path: a worker receives a
//     contiguous chunk of runs and hands RunBlock the whole chunk, so
//     batch kernels sample and score every run in flight at once. The
//     run RNGs are per-worker scratch too: each worker owns a pooled
//     bank of reseedable rng.Sources and repositions slot i with
//     Reseed(seed, start+i) before every block, so deriving a run's
//     stream is allocation-free.
//
//   - Deterministic streaming aggregation: results are re-ordered and
//     handed to Accumulate in strict run order on a single goroutine, so
//     floating-point reductions are bitwise reproducible for any worker
//     count.
//
// Errors cancel the experiment early: the first error (from worker setup,
// a block, or accumulation) stops dispatch, unblocks all workers and is
// returned to the caller. Cancelling the context passed to Run has the
// same effect: dispatch stops, in-flight blocks finish, and the context's
// error is returned (checks happen between blocks, so cancellation
// latency is one block — at most 256 runs — not one experiment).
package engine

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"chaffmec/internal/rng"
)

// Shard selects one contiguous sub-range of an experiment's global run
// indices, in one of two modes: shard Index of Count covers
// [Index·Runs/Count, (Index+1)·Runs/Count), while an explicit Start/End
// pair covers exactly [Start, End) regardless of the experiment's
// declared run count — the selector round-based (adaptive or resumed)
// execution uses to extend a covered range past what earlier rounds
// executed, possibly beyond Options.Runs. The zero value selects the
// whole experiment.
type Shard struct {
	Index int `json:"index"`
	Count int `json:"count"`
	// Start and End, when End > Start, select the explicit half-open run
	// range [Start, End) instead of the Index/Count split. Mixing the two
	// modes is rejected by Validate.
	Start int `json:"start,omitempty"`
	End   int `json:"end,omitempty"`
}

// IsExplicit reports whether the shard selects an explicit run range.
func (s Shard) IsExplicit() bool { return s.Start != 0 || s.End != 0 }

// IsWhole reports whether the shard covers the full run range.
func (s Shard) IsWhole() bool { return s.Count <= 1 && !s.IsExplicit() }

// Validate rejects malformed selectors (Count < 0, Index outside
// [0, Count), empty or negative explicit ranges, mixed modes).
func (s Shard) Validate() error {
	if s.IsExplicit() {
		if s.Index != 0 || s.Count < 0 || s.Count > 1 {
			return fmt.Errorf("engine: shard mixes split %d/%d with explicit range [%d,%d)",
				s.Index, s.Count, s.Start, s.End)
		}
		if s.Start < 0 || s.End <= s.Start {
			return fmt.Errorf("engine: invalid shard range [%d,%d)", s.Start, s.End)
		}
		return nil
	}
	if s.Count >= 0 && s.Count <= 1 && s.Index == 0 {
		return nil
	}
	if s.Count < 0 || s.Index < 0 || s.Index >= s.Count {
		return fmt.Errorf("engine: invalid shard %d/%d", s.Index, s.Count)
	}
	return nil
}

// Range returns the half-open global run range [start, end) the shard
// covers out of total runs. Index/Count ranges of complementary shards
// tile [0, total) contiguously and differ in size by at most one run; an
// explicit range is returned as declared (its End may exceed total —
// rounds extending an experiment run past its declared count).
func (s Shard) Range(total int) (start, end int) {
	if s.IsExplicit() {
		return s.Start, s.End
	}
	if s.IsWhole() {
		return 0, total
	}
	return s.Index * total / s.Count, (s.Index + 1) * total / s.Count
}

// String formats the selector as "index/count" or "[start,end)".
func (s Shard) String() string {
	if s.IsExplicit() {
		return fmt.Sprintf("[%d,%d)", s.Start, s.End)
	}
	if s.IsWhole() {
		return "0/1"
	}
	return fmt.Sprintf("%d/%d", s.Index, s.Count)
}

// Span returns the explicit-range selector covering [start, end) — the
// shard a round driver submits to extend an experiment's coverage.
func Span(start, end int) Shard { return Shard{Start: start, End: end} }

// Options tunes a Monte-Carlo experiment.
type Options struct {
	// Runs is the TOTAL number of Monte-Carlo repetitions of the
	// experiment (default 1000, the paper's setting), independent of
	// sharding: a shard executes its slice of these global run indices.
	Runs int
	// Seed derives the per-run RNG streams via rng.Derive; a fixed seed
	// makes the whole experiment reproducible regardless of scheduling.
	Seed int64
	// Workers caps the parallel workers (default GOMAXPROCS).
	Workers int
	// Shard restricts execution to one contiguous slice of the global
	// run range (zero value: the whole experiment).
	Shard Shard
}

// Normalized resolves the defaults: Runs 1000, Workers GOMAXPROCS (both
// additionally clamped so Workers does not exceed the executed range).
func (o Options) Normalized() Options {
	if o.Runs <= 0 {
		o.Runs = 1000
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if start, end := o.Shard.Range(o.Runs); o.Workers > end-start {
		o.Workers = end - start
		if o.Workers < 1 {
			o.Workers = 1
		}
	}
	return o
}

// Range returns the global run range the options execute (after
// normalizing Runs).
func (o Options) Range() (start, end int) {
	return o.Shard.Range(o.Normalized().Runs)
}

// Config wires one experiment into Run. W is the per-worker scratch state,
// R the per-run result type.
type Config[W, R any] struct {
	// NewWorker builds worker-local scratch (detectors, reusable buffers).
	// It runs once per worker on the caller's goroutine before any run
	// executes, so setup failures abort the experiment deterministically.
	// Nil means no scratch (W's zero value is passed to every RunBlock
	// call).
	NewWorker func(worker int) (W, error)
	// RunBlock executes a whole dispatch chunk of runs at once — the
	// batch-kernel hot path. The engine hands the worker the contiguous
	// GLOBAL run range [start, start+len(out)) (a shard sees its own
	// slice of the global range): rngs[i] is run start+i's private
	// stream, derived deterministically from (Options.Seed, start+i), and
	// the callback must fill out[i] with run start+i's result. The rng
	// bank is per-worker scratch repositioned before every block; results
	// are retained by the engine until Accumulate consumes them, so they
	// must not alias the bank or any other scratch the next block
	// overwrites. A block error is attributed to the block's first run.
	//
	// RunBlock must not call Read on any rng of the bank: the engine
	// repositions each pooled source between blocks, but rand.Rand's Read
	// method buffers up to 7 bytes internally across calls, which would
	// leak state between consecutive runs drawing from one bank slot and
	// break the (seed, run)-only determinism contract. Every other
	// rand.Rand method is stateless over the source and safe.
	RunBlock func(w W, start int, rngs []*rand.Rand, out []R) error
	// BlockSize, when positive, is the preferred RunBlock dispatch width —
	// typically internal/tune's fixed width or its CHAFFMEC_BLOCK pin.
	// Dispatch honors it whenever every worker still gets a full chunk of
	// work (the width is clamped to runs/workers otherwise, and to the
	// [1, 256] bounds chunkSize documents). It has no effect on results —
	// runs draw identical streams at any chunking — only on how many
	// travel per handoff. Zero selects the chunkSize load-balance heuristic.
	BlockSize int
	// Accumulate folds one run's result into the experiment aggregate. It
	// is called on a single goroutine in strict run order (ascending
	// global indices), making reductions independent of scheduling and
	// worker count.
	Accumulate func(run int, r R) error
	// FreeWorker releases one worker's scratch after no run will touch it
	// again — on the caller's goroutine, once per state NewWorker built
	// (success and error paths alike). Round-based drivers use it to
	// return pooled arenas, so consecutive engine runs stop rebuilding
	// their largest allocations every round.
	FreeWorker func(w W)
}

// chunkSize picks the dispatch granularity: runs travel through the
// channels in contiguous chunks so the per-run synchronization cost is
// amortized (critical on low-core machines, where every channel handoff
// is a context switch), while keeping at least a few chunks per worker
// for load balancing.
func chunkSize(runs, workers int) int {
	c := runs / (workers * 4)
	if c < 1 {
		c = 1
	}
	if c > 256 {
		c = 256
	}
	return c
}

// dispatchChunk resolves the chunk width one experiment dispatches at:
// the chunkSize load-balance heuristic by default, or the caller's
// block width when set — clamped to runs/workers so a scarce run range
// still spreads over every worker, and to chunkSize's [1, 256] bounds.
// Chunking never affects results (streams are per-(seed, run) and
// accumulation is run-ordered), so the width is purely a throughput
// choice.
func dispatchChunk(runs, workers, blockSize int) int {
	if blockSize <= 0 {
		return chunkSize(runs, workers)
	}
	c := blockSize
	if per := runs / workers; c > per {
		c = per
	}
	if c < 1 {
		c = 1
	}
	if c > 256 {
		c = 256
	}
	return c
}

// rngBank is the pooled per-worker bank of reseedable run sources every
// block draws from. Each rand.Rand is permanently wired to its slot in
// srcs, so the pair recycles as a unit; pooling it keeps adaptive round
// loops (one engine run per round) from rebuilding banks every round.
type rngBank struct {
	srcs  []rng.Source
	rands []*rand.Rand
}

var bankPool = sync.Pool{New: func() any { return &rngBank{} }}

// getBank returns a pooled bank of at least n streams.
func getBank(n int) *rngBank {
	b := bankPool.Get().(*rngBank)
	if cap(b.srcs) < n {
		b.srcs = make([]rng.Source, n)
		b.rands = make([]*rand.Rand, n)
		for i := range b.srcs {
			b.rands[i] = rand.New(&b.srcs[i])
		}
	}
	b.srcs = b.srcs[:cap(b.srcs)]
	b.rands = b.rands[:len(b.srcs)]
	return b
}

func putBank(b *rngBank) { bankPool.Put(b) }

// reorderWindow bounds how far dispatch may advance past the oldest
// unaccumulated chunk, capping the engine's buffered-result memory at
// roughly window·chunk·sizeof(R) regardless of scheduling skew.
func reorderWindow(workers int) int {
	w := 4 * workers
	if w < 16 {
		w = 16
	}
	return w
}

// Run executes cfg's runs across a worker pool: the whole global range
// [0, opts.Runs) by default, or the slice selected by opts.Shard.
// Results are accumulated in run order; the first error — including
// ctx's cancellation — stops the remaining work and is returned.
func Run[W, R any](ctx context.Context, opts Options, cfg Config[W, R]) error {
	if ctx == nil {
		ctx = context.Background()
	}
	o := opts.Normalized()
	if err := o.Shard.Validate(); err != nil {
		return err
	}
	if cfg.RunBlock == nil {
		return fmt.Errorf("engine: Config.RunBlock is nil")
	}
	if cfg.Accumulate == nil {
		return fmt.Errorf("engine: Config.Accumulate is nil")
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	first, last := o.Shard.Range(o.Runs)
	runs := last - first
	if runs == 0 {
		return nil
	}

	// Worker scratch is built up front, before any run executes: a setup
	// failure is then reported deterministically, instead of racing the
	// completion of the runs on the other workers.
	states := make([]W, o.Workers)
	if cfg.NewWorker != nil {
		for w := range states {
			var err error
			if states[w], err = cfg.NewWorker(w); err != nil {
				if cfg.FreeWorker != nil {
					for _, s := range states[:w] {
						cfg.FreeWorker(s)
					}
				}
				return fmt.Errorf("engine: worker %d setup: %w", w, err)
			}
		}
	}
	if cfg.FreeWorker != nil {
		// Runs on every return below — all of which come after wg.Wait, so
		// no worker goroutine can still touch the scratch being released.
		defer func() {
			for _, s := range states {
				cfg.FreeWorker(s)
			}
		}()
	}

	chunk := dispatchChunk(runs, o.Workers, cfg.BlockSize)
	// A chunk is the half-open run range [start, start+len(res)).
	type outcome struct {
		start int
		res   []R
		err   error
	}
	jobs := make(chan [2]int)
	results := make(chan outcome, o.Workers)
	// tokens implements the dispatch window: the dispatcher takes a token
	// per chunk, the aggregator returns it once the chunk is accumulated.
	tokens := make(chan struct{}, reorderWindow(o.Workers))
	cancel := make(chan struct{})
	var cancelOnce sync.Once
	stop := func() { cancelOnce.Do(func() { close(cancel) }) }

	var wg sync.WaitGroup
	for w := 0; w < o.Workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			state := states[worker]
			// A pooled bank of reseedable sources per worker:
			// repositioning one with Reseed is an 8-byte write, so
			// deriving a run's private stream costs no allocation
			// regardless of the run count.
			b := getBank(chunk)
			defer putBank(b)
			for {
				select {
				case <-cancel:
					return
				case job, ok := <-jobs:
					if !ok {
						return
					}
					n := job[1] - job[0]
					for i := 0; i < n; i++ {
						b.srcs[i].Reseed(o.Seed, job[0]+i)
					}
					out := outcome{start: job[0]}
					res := make([]R, n)
					if err := cfg.RunBlock(state, job[0], b.rands[:n], res); err != nil {
						out.err = err
					} else {
						out.res = res
					}
					select {
					case results <- out:
					case <-cancel:
						return
					}
				}
			}
		}(w)
	}

	go func() {
		defer close(jobs)
		for start := first; start < last; start += chunk {
			end := start + chunk
			if end > last {
				end = last
			}
			select {
			case tokens <- struct{}{}:
			case <-cancel:
				return
			case <-ctx.Done():
				return
			}
			select {
			case jobs <- [2]int{start, end}:
			case <-cancel:
				return
			case <-ctx.Done():
				return
			}
		}
	}()

	pending := make(map[int][]R, o.Workers)
	next := first
	var firstErr error
collect:
	for next < last && firstErr == nil {
		var out outcome
		select {
		case out = <-results:
		case <-ctx.Done():
			firstErr = fmt.Errorf("engine: %w", ctx.Err())
			break collect
		}
		if out.err != nil {
			firstErr = fmt.Errorf("engine: run %d: %w", out.start, out.err)
			break
		}
		pending[out.start] = out.res
		for {
			res, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			start := next
			for i, r := range res {
				if err := cfg.Accumulate(start+i, r); err != nil {
					firstErr = fmt.Errorf("engine: accumulating run %d: %w", start+i, err)
					break
				}
				next++
			}
			if firstErr != nil {
				break
			}
			<-tokens
		}
	}
	stop()
	wg.Wait()
	return firstErr
}
