package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"chaffmec/internal/chaff"
	"chaffmec/internal/detect"
	"chaffmec/internal/engine"
	"chaffmec/internal/figures"
	"chaffmec/internal/report"
	"chaffmec/internal/rng"
	"chaffmec/internal/sim"
	"chaffmec/internal/store"
	"chaffmec/internal/tune"
)

// traceLabCache shares built TraceLabs across the rounds and in-process
// shards of "trace" jobs: a lab depends only on its generation
// parameters (TraceConfig is comparable), and building one — trace
// generation, tower field, regularisation, quantisation, chain fitting —
// dwarfs the per-round evaluation, so an adaptive trace job must not pay
// it once per round. Labs are immutable after construction (the chain's
// lazy alias tables are internally synchronized), so sharing is safe; a
// small LRU bounds the footprint when configs churn. Builds run outside
// the cache lock behind a per-entry Once: concurrent jobs wanting the
// SAME lab block on one build, while lookups of other configs proceed.
//
// Next to the lab an entry keeps what trace jobs derive from it, each
// once on first demand and dropped with the lab: its ML view — the
// fleet's score table (detect.Fleet), since the fleet is the same in
// every run and chunk, and the fleet ranked by tracked-ness, from which
// TraceUser picks the protected user — and the tracking series of every
// stream-free job shape asked for (see traceSeriesKey).
type traceLabEntry struct {
	once sync.Once
	lab  *figures.TraceLab
	err  error

	viewOnce sync.Once
	fleet    *detect.Fleet
	ranking  []int // fleet indices, most tracked first
	viewErr  error

	seriesMu sync.Mutex
	series   map[traceSeriesKey]*traceSeries
}

// traceSeriesKey names the one tracking series a trace job computes when
// its runs draw nothing from their streams: chaff-free, or a
// chaff.TrajectoryMapper strategy (every chaff is Γ(user)) scored by the
// basic eavesdropper or by the strategy-aware one with the strategy's
// own Γ. Every run of such a job observes the same fleet and chaffs, so
// with the lab fixed the series depends on these fields alone.
type traceSeriesKey struct {
	strategy string // canonical strategy name, "" for chaff-free
	chaffs   int
	user     int // fleet index of the protected user
	advanced bool
}

// traceSeries is one key's series, computed once and then shared
// read-only by every run of every job with that key.
type traceSeries struct {
	once   sync.Once
	series []float64
	err    error
}

var traceLabCache = struct {
	sync.Mutex
	labs   map[figures.TraceConfig]*traceLabEntry
	order  []figures.TraceConfig // oldest first
	builds int                   // observability for tests
	views  int                   // ML views derived; observability for tests
	series int                   // fixed series computed; observability for tests
}{labs: map[figures.TraceConfig]*traceLabEntry{}}

const traceLabCacheCap = 4

func sharedTraceEntry(cfg figures.TraceConfig) (*traceLabEntry, error) {
	c := &traceLabCache
	c.Lock()
	e, ok := c.labs[cfg]
	if ok {
		for i, k := range c.order { // refresh LRU position
			if k == cfg {
				c.order = append(append(c.order[:i:i], c.order[i+1:]...), cfg)
				break
			}
		}
	} else {
		e = &traceLabEntry{}
		c.labs[cfg] = e
		c.order = append(c.order, cfg)
		if len(c.order) > traceLabCacheCap {
			// An evicted entry may still be mid-build; its waiters hold
			// the pointer and finish unaffected.
			delete(c.labs, c.order[0])
			c.order = c.order[1:]
		}
	}
	c.Unlock()
	e.once.Do(func() {
		var built bool
		e.lab, built, e.err = loadOrBuildTraceLab(cfg)
		if built {
			c.Lock()
			c.builds++
			c.Unlock()
		}
	})
	if e.err != nil {
		// Do not cache failures: drop the entry so a later call retries.
		c.Lock()
		if c.labs[cfg] == e {
			delete(c.labs, cfg)
			for i, k := range c.order {
				if k == cfg {
					c.order = append(c.order[:i:i], c.order[i+1:]...)
					break
				}
			}
		}
		c.Unlock()
		return nil, e.err
	}
	return e, nil
}

// view returns the lab's fleet score table and tracked-ness ranking,
// deriving both on first use.
func (e *traceLabEntry) view() (*detect.Fleet, []int, error) {
	e.viewOnce.Do(func() {
		c := &traceLabCache
		c.Lock()
		c.views++
		c.Unlock()
		if e.fleet, e.viewErr = detect.NewFleet(e.lab.Chain, e.lab.Trajectories); e.viewErr != nil {
			return
		}
		e.ranking, _, e.viewErr = e.lab.TopUsers(len(e.lab.Trajectories))
	})
	return e.fleet, e.ranking, e.viewErr
}

// fixedSeries returns the entry's slot for key, creating it on first
// use; the caller fills it through its once.
func (e *traceLabEntry) fixedSeries(key traceSeriesKey) *traceSeries {
	e.seriesMu.Lock()
	defer e.seriesMu.Unlock()
	fs, ok := e.series[key]
	if !ok {
		if e.series == nil {
			e.series = map[traceSeriesKey]*traceSeries{}
		}
		fs = &traceSeries{}
		e.series[key] = fs
	}
	return fs
}

// buildTraceLab is the cold-build path, a seam the cache tests stub.
var buildTraceLab = figures.BuildTraceLab

// storeKindTraceLab namespaces persisted labs in the artifact store.
const storeKindTraceLab = "tracelab"

// traceLabStoreKey is the lab's content address: the generation config,
// the rng stream version it was generated under (a stream bump changes
// every synthetic trace, so old artifacts must not hit) and the GOARCH
// that fitted it (Go fuses x*y+z into one FMA on some architectures, so
// a lab fitted on another one may differ in its low bits).
func traceLabStoreKey(cfg figures.TraceConfig, arch string) string {
	spec, _ := json.Marshal(cfg)
	return store.Key(storeKindTraceLab, string(spec), rng.StreamVersion, arch)
}

// loadOrBuildTraceLab consults the artifact store before paying for a
// build: a warm store turns a fresh process's first trace Job from a
// full generate/fit pipeline into one decode. Built reports whether the
// pipeline actually ran (store hits don't count as builds). Store
// failures never fail the job — a blob that won't decode is evicted and
// rebuilt, and persisting the fresh build is best-effort.
func loadOrBuildTraceLab(cfg figures.TraceConfig) (lab *figures.TraceLab, built bool, err error) {
	st := store.Default()
	var key string
	if st != nil {
		key = traceLabStoreKey(cfg, runtime.GOARCH)
		if blob, ok, err := st.Get(storeKindTraceLab, key); err == nil && ok {
			if lab, err := figures.DecodeTraceLab(bytes.NewReader(blob)); err == nil {
				return lab, false, nil
			}
			st.Delete(storeKindTraceLab, key)
		}
	}
	lab, err = buildTraceLab(cfg)
	if err != nil {
		return nil, false, err
	}
	if st != nil {
		var buf bytes.Buffer
		if err := lab.Encode(&buf); err == nil {
			st.Put(storeKindTraceLab, key, buf.Bytes())
		}
	}
	return lab, true, nil
}

// ResetTraceLabCache empties the shared lab cache, the labs' ML views
// and fixed series with it. Tests and perfbench use it to force the
// next trace job through loadOrBuildTraceLab.
func ResetTraceLabCache() {
	c := &traceLabCache
	c.Lock()
	c.labs = map[figures.TraceConfig]*traceLabEntry{}
	c.order = nil
	c.Unlock()
}

// TraceLabBuilds counts the labs built from scratch since process start
// — store hits and cache hits don't move it, so a warm-store run is
// provably build-free.
func TraceLabBuilds() int {
	c := &traceLabCache
	c.Lock()
	defer c.Unlock()
	return c.builds
}

// runTrace is the trace-driven population kind (Section VII-B): a
// TraceLab fleet — synthetic taxi traces regularised, inactivity
// filtered and quantised into Voronoi cells — forms the fixed observed
// population, and each Monte-Carlo run draws a fresh chaff stream (from
// the run's private engine stream) protecting the TraceUser-th most
// tracked user. The eavesdropper (basic ML, or strategy-aware when
// Advanced) observes all fleet trajectories plus the chaffs; the
// reported series is the protected user's per-slot tracking accuracy
// averaged over the chaff streams. A stream-free job skips the engine:
// every run of its range carries the lab's one series, folded in closed
// form by SeriesStats.AddRepeated, bit-identical to folding it once per
// run. See newTraceJob for the kernels.
//
// Spec fields used: Nodes (fleet size, default 174), Horizon (the
// observation window in one-minute slots), TraceUser (tracked-ness
// rank), Strategy/NumChaffs/Advanced, ModelSeed (fleet generation seed;
// 0 uses Seed).
func runTrace(ctx context.Context, sp Spec, shard engine.Shard) (*report.Report, error) {
	job, err := newTraceJob(sp)
	if err != nil {
		return nil, err
	}
	lab := job.lab
	o := sp.options(shard).Normalized()
	start, end := o.Range()
	track := engine.NewSeriesStatsAt(lab.Horizon, start)

	if job.fixed != nil {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("scenario: %w", err)
		}
		if end > start {
			series, err := job.fixed()
			if err != nil {
				return nil, err
			}
			if err := track.AddRepeated(series, end-start); err != nil {
				return nil, err
			}
		}
	} else {
		// Only chaff generation draws from the run streams. The chunk
		// width is tune.BlockSize (chunking never changes results).
		err = engine.Run(ctx, o, engine.Config[*sim.TraceWorker, []float64]{
			NewWorker:  job.newWorker,
			FreeWorker: (*sim.TraceWorker).Release,
			RunBlock:   job.runBlock,
			BlockSize:  tune.BlockSize(lab.Chain, len(lab.Trajectories)+job.numChaffs, lab.Horizon),
			Accumulate: func(run int, series []float64) error {
				return track.Add(series)
			},
		})
		if err != nil {
			return nil, err
		}
	}
	rep := sp.envelope(shard)
	rep.Horizon = lab.Horizon
	rep.Series = map[string]engine.SeriesSnapshot{
		report.SeriesTracking: track.Snapshot(),
	}
	return rep, nil
}

// StreamFree reports whether every run of sp is the same run: a trace
// job that draws nothing from its run streams (see newTraceJob), whose
// shards fold their one series in closed form and so have no per-run
// progress to checkpoint. Resolving the job loads the lab the job would
// run on, through the same shared cache. Every other kind answers false.
func StreamFree(sp Spec) (bool, error) {
	if sp.Kind != "trace" {
		return false, nil
	}
	job, err := newTraceJob(sp.withDefaults())
	if err != nil {
		return false, err
	}
	return job.fixed != nil, nil
}

// traceJob is a trace spec resolved against its lab entry: either the
// one series every run of a stream-free job carries (fixed), or the
// engine callbacks that produce each block's tracking series.
type traceJob struct {
	lab       *figures.TraceLab
	numChaffs int
	fixed     func() ([]float64, error)
	newWorker func(int) (*sim.TraceWorker, error)
	runBlock  func(w *sim.TraceWorker, start int, rngs []*rand.Rand, out [][]float64) error
}

// newTraceJob resolves sp's lab, protected user and eavesdropper
// (sim.Trace, which scores each run's chaffs against the lab's fleet
// table, or re-scores the packed fleet per run for the strategy-aware
// eavesdropper).
//
// A chaff-free job, or one whose strategy is a chaff.TrajectoryMapper
// with no injected Γ, draws nothing from the run streams, so all its
// runs are one run: job.fixed returns that run's series, which the lab
// entry computes once per traceSeriesKey, lazily on the first call,
// through the same kernel at width 1, and runTrace folds it over the
// whole range without the engine.
func newTraceJob(sp Spec) (*traceJob, error) {
	if sp.Advanced && sp.Strategy == "" {
		return nil, errNothingToRecognize
	}
	if sp.TraceUser < 0 {
		return nil, badSpec("trace_user %d must be >= 0", sp.TraceUser)
	}
	labSeed := sp.ModelSeed
	if labSeed == 0 {
		labSeed = sp.Seed
	}
	entry, err := sharedTraceEntry(figures.TraceConfig{
		Seed:    labSeed,
		Nodes:   sp.Nodes,
		Minutes: sp.Horizon,
	})
	if err != nil {
		return nil, err
	}
	lab := entry.lab
	fleet, ranking, err := entry.view()
	if err != nil {
		return nil, fmt.Errorf("scenario: scoring the trace fleet: %w", err)
	}
	if sp.TraceUser >= len(ranking) {
		return nil, badSpec("trace_user %d outside the %d-node fleet", sp.TraceUser, len(ranking))
	}
	user := ranking[sp.TraceUser]

	job := &traceJob{lab: lab}
	var strat chaff.Strategy
	if sp.Strategy != "" {
		if strat, err = chaff.NewByName(sp.Strategy, lab.Chain); err != nil {
			return nil, err
		}
		job.numChaffs = sp.NumChaffs
	}
	tr, err := sim.NewTrace(lab.Chain, fleet, lab.Trajectories, strat, sp.NumChaffs, sp.Advanced, sp.Gamma)
	if err != nil {
		return nil, err
	}
	kernel := func(w *sim.TraceWorker, start int, rngs []*rand.Rand, out [][]float64) error {
		return tr.RunBlock(w, user, rngs, out)
	}

	if _, mapper := strat.(chaff.TrajectoryMapper); (strat != nil && !mapper) || sp.Gamma != nil {
		job.runBlock = kernel
		job.newWorker = func(int) (*sim.TraceWorker, error) { return tr.NewWorker(), nil }
		return job, nil
	}
	key := traceSeriesKey{chaffs: job.numChaffs, user: user, advanced: sp.Advanced}
	if strat != nil {
		key.strategy = strat.Name()
	}
	fixed := entry.fixedSeries(key)
	compute := func() {
		c := &traceLabCache
		c.Lock()
		c.series++
		c.Unlock()
		// The strategy draws nothing, so run 0 stands for every run; its
		// nil stream would fault on a draw.
		w := tr.NewWorker()
		defer w.Release()
		one := make([][]float64, 1)
		if fixed.err = kernel(w, 0, []*rand.Rand{nil}, one); fixed.err == nil {
			fixed.series = one[0]
		}
	}
	job.fixed = func() ([]float64, error) {
		fixed.once.Do(compute)
		return fixed.series, fixed.err // read-only: AddRepeated copies it
	}
	return job, nil
}
