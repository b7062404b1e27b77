package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"chaffmec/internal/chaff"
	"chaffmec/internal/detect"
	"chaffmec/internal/engine"
	"chaffmec/internal/figures"
	"chaffmec/internal/markov"
	"chaffmec/internal/report"
	"chaffmec/internal/rng"
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
type traceLabEntry struct {
	once sync.Once
	lab  *figures.TraceLab
	err  error
}

var traceLabCache = struct {
	sync.Mutex
	labs   map[figures.TraceConfig]*traceLabEntry
	order  []figures.TraceConfig // oldest first
	builds int                   // observability for tests
}{labs: map[figures.TraceConfig]*traceLabEntry{}}

const traceLabCacheCap = 4

func sharedTraceLab(cfg figures.TraceConfig) (*figures.TraceLab, error) {
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
	}
	return e.lab, e.err
}

// buildTraceLab is the cold-build path, a seam the cache tests stub.
var buildTraceLab = figures.BuildTraceLab

// storeKindTraceLab namespaces persisted labs in the artifact store.
const storeKindTraceLab = "tracelab"

// traceLabStoreKey is the lab's content address: the generation config
// and the rng stream version it was generated under (a stream bump
// changes every synthetic trace, so old artifacts must not hit).
func traceLabStoreKey(cfg figures.TraceConfig) string {
	spec, _ := json.Marshal(cfg)
	return store.Key(storeKindTraceLab, string(spec), rng.StreamVersion)
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
		key = traceLabStoreKey(cfg)
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

// ResetTraceLabCache empties the shared lab cache. Tests and benches
// use it to force the next trace job through loadOrBuildTraceLab.
func ResetTraceLabCache() {
	c := &traceLabCache
	c.Lock()
	c.labs = map[figures.TraceConfig]*traceLabEntry{}
	c.order = nil
	c.Unlock()
}

// TraceLabBuilds counts the labs built from scratch since process start
// — store hits and cache hits don't move it, so a warm-store run is
// provably build-free (the wire bench's assertion).
func TraceLabBuilds() int {
	c := &traceLabCache
	c.Lock()
	defer c.Unlock()
	return c.builds
}

// traceWorker is a trace run's per-worker scratch: the reusable scoring
// workspace and the chaff buffers every block regenerates in place.
type traceWorker struct {
	ws        *detect.Workspace
	chaffBufs []markov.Trajectory
}

// runTraceBlock is the trace batch kernel: it packs the fixed fleet plus
// each run's chaff stream (generated into the worker's reused buffers)
// into the worker's scoring block, sweeps the whole chunk once through
// the block scorer, and copies the protected user's tracking series out
// of the arena — one backing allocation per block.
//
//chaffmec:hotpath
func runTraceBlock(lab *figures.TraceLab, strat chaff.Strategy, scorer detect.BlockScorer, user int, w *traceWorker, rngs []*rand.Rand, out [][]float64) error {
	B, T := len(rngs), lab.Horizon
	blk := w.ws.Block(B, len(lab.Trajectories)+len(w.chaffBufs), T)
	for r := range rngs {
		for u, tr := range lab.Trajectories {
			if err := blk.SetTrajectory(r, u, tr); err != nil {
				return err
			}
		}
		if strat != nil {
			if err := chaff.GenerateInto(strat, rngs[r], lab.Trajectories[user], w.chaffBufs); err != nil {
				return fmt.Errorf("scenario: trace chaffs: %w", err)
			}
			for i, ch := range w.chaffBufs {
				if err := blk.SetTrajectory(r, len(lab.Trajectories)+i, ch); err != nil {
					return err
				}
			}
		}
	}
	if err := scorer.ScoreBlock(blk, user); err != nil {
		return err
	}
	//lint:ignore hotpath by design: results must outlive the arena's reuse by the next chunk, so each block pays exactly one backing allocation
	backing := make([]float64, B*T)
	for r := range out {
		series := backing[r*T : (r+1)*T]
		copy(series, blk.Tracking(r))
		out[r] = series
	}
	return nil
}

// runTrace is the trace-driven population kind (Section VII-B): a
// TraceLab fleet — synthetic taxi traces regularised, inactivity
// filtered and quantised into Voronoi cells — forms the fixed observed
// population, and each Monte-Carlo run draws a fresh chaff stream (from
// the run's private engine stream) protecting the TraceUser-th most
// tracked user. The eavesdropper (basic ML, or strategy-aware when
// Advanced) observes all fleet trajectories plus the chaffs; the
// reported series is the protected user's per-slot tracking accuracy
// averaged over the chaff streams. With no Strategy the runs are
// chaff-free (and therefore identical — a deterministic baseline).
//
// Spec fields used: Nodes (fleet size, default 174), Horizon (the
// observation window in one-minute slots), TraceUser (tracked-ness
// rank), Strategy/NumChaffs/Advanced, ModelSeed (fleet generation seed;
// 0 uses Seed).
func runTrace(ctx context.Context, sp Spec, shard engine.Shard) (*report.Report, error) {
	if sp.Advanced && sp.Strategy == "" {
		return nil, errors.New("scenario: advanced eavesdropper needs a strategy to recognize")
	}
	if sp.TraceUser < 0 {
		return nil, fmt.Errorf("scenario: trace_user %d must be >= 0", sp.TraceUser)
	}
	labSeed := sp.ModelSeed
	if labSeed == 0 {
		labSeed = sp.Seed
	}
	lab, err := sharedTraceLab(figures.TraceConfig{
		Seed:    labSeed,
		Nodes:   sp.Nodes,
		Minutes: sp.Horizon,
	})
	if err != nil {
		return nil, err
	}
	top, _, err := lab.TopUsers(sp.TraceUser + 1)
	if err != nil {
		return nil, fmt.Errorf("scenario: selecting trace user %d: %w", sp.TraceUser, err)
	}
	user := top[sp.TraceUser]

	var strat chaff.Strategy
	numChaffs := 0
	if sp.Strategy != "" {
		if strat, err = chaff.NewByName(sp.Strategy, lab.Chain); err != nil {
			return nil, err
		}
		numChaffs = sp.NumChaffs
	}
	var scorer detect.BlockScorer = detect.NewMLDetector(lab.Chain)
	if sp.Advanced {
		gamma, err := specGamma(sp, lab.Chain)
		if err != nil {
			return nil, err
		}
		if scorer, err = detect.NewCappedAdvancedDetector(lab.Chain, gamma); err != nil {
			return nil, err
		}
	}

	o := sp.options(shard).Normalized()
	start, _ := o.Range()
	track := engine.NewSeriesStatsAt(lab.Horizon, start)

	// The fixed fleet plus each run's chaff stream are packed into the
	// worker's scoring block and swept once per chunk; only chaff
	// generation draws from the run streams. The chunk width comes from
	// the block-geometry calibration for this kernel shape (cached per
	// host; chunking never changes results).
	err = engine.Run(ctx, o, engine.Config[*traceWorker, []float64]{
		NewWorker: func(int) (*traceWorker, error) {
			w := &traceWorker{
				ws:        detect.GetWorkspace(),
				chaffBufs: make([]markov.Trajectory, numChaffs),
			}
			for i := range w.chaffBufs {
				w.chaffBufs[i] = make(markov.Trajectory, lab.Horizon)
			}
			return w, nil
		},
		FreeWorker: func(w *traceWorker) { w.ws.Release() },
		RunBlock: func(w *traceWorker, start int, rngs []*rand.Rand, out [][]float64) error {
			return runTraceBlock(lab, strat, scorer, user, w, rngs, out)
		},
		BlockSize: tune.BlockSize(lab.Chain, len(lab.Trajectories)+numChaffs, lab.Horizon),
		Accumulate: func(run int, series []float64) error {
			return track.Add(series)
		},
	})
	if err != nil {
		return nil, err
	}
	rep := sp.envelope(shard)
	rep.Horizon = lab.Horizon
	rep.Series = map[string]engine.SeriesSnapshot{
		report.SeriesTracking: track.Snapshot(),
	}
	return rep, nil
}
