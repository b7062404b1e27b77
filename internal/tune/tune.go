// Package tune makes the engine's block geometry a measured choice
// instead of a constant. The batch hot path's throughput depends on how
// many Monte-Carlo runs travel per dispatch chunk (the scoring tile's
// working set, the sampling bank's stride and the per-chunk dispatch
// overhead all scale with it), and the best width depends on the live
// kernel shape — chain size n, trajectories per run U, horizon T — and
// on the host's cache hierarchy. Rather than hard-coding one width,
// BlockSize micro-benchmarks the actual tiled scoring kernel over the
// candidate widths {16, 32, 64, 128, 256} at startup and returns the
// fastest.
//
// A calibration is cheap (a bounded lane-slot budget per candidate, a
// few milliseconds total) but not free, so choices are cached twice
// over: in-process per (n, U, T), and — when an artifact store is
// configured — persistently per (version, GOARCH, n, U, T), so a host
// measures each kernel shape once, not once per process. Remove the
// store's "tune" kind (`rm -r $CHAFFMEC_STORE/tune`) to force
// re-measurement, or pin a width for every shape with CHAFFMEC_BLOCK.
//
// Calibration never touches result streams: block width only changes
// how many runs travel per chunk, and engine results are bit-identical
// at any chunking (streams are pure functions of (seed, run) and
// accumulation is run-ordered). The measurement itself draws from a
// fixed local rng stream unrelated to any experiment's seed.
package tune

import (
	"encoding/json"
	"os"
	"runtime"
	"strconv"
	"sync"
	"time"

	"chaffmec/internal/detect"
	"chaffmec/internal/markov"
	"chaffmec/internal/rng"
	"chaffmec/internal/store"
)

// Candidates are the block widths BlockSize measures, in measurement
// order. 256 matches the engine's dispatch clamp; widths below 16 pay
// more dispatch overhead than any cache effect can buy back.
var Candidates = [...]int{16, 32, 64, 128, 256}

// DefaultBlockSize is returned when measurement is impossible (nil
// chain, degenerate geometry): the engine dispatch cap, matching the
// pre-calibration behavior of large experiments.
const DefaultBlockSize = 256

// calibVersion keys persisted calibrations; bump it when the
// measurement methodology changes so stale store entries stop hitting.
const calibVersion = "blockgeom-v1"

// storeKind namespaces calibrations in the artifact store.
const storeKind = "tune"

// calibSeed feeds the measurement block's trajectories. It is a local
// constant: calibration trajectories exist only to exercise the kernel's
// memory-access pattern and never touch experiment streams.
const calibSeed = 0x7e57b10c

// laneSlotBudget bounds the work per candidate: roughly
// laneSlotBudget lane-slots are scored per width (split over
// calibPasses timing passes, best pass kept), keeping a full
// calibration in the low milliseconds.
const laneSlotBudget = 1 << 17

// calibPasses is how many timing passes each candidate gets; the
// minimum is kept, damping scheduler noise without a larger budget.
const calibPasses = 3

// calibHorizon caps the measured horizon: the per-slot working set
// depends on B·U, not on T, so long experiments calibrate on a
// truncated horizon instead of scoring millions of slots.
const calibHorizon = 64

type geomKey struct{ n, u, t int }

var cache sync.Map // geomKey → int

// envBlock reads the CHAFFMEC_BLOCK pin once per process.
var envBlock = sync.OnceValue(parseEnvBlock)

// parseEnvBlock parses the CHAFFMEC_BLOCK pin: a width in [1, 256], or
// 0 (ignored) when unset or nonsense.
func parseEnvBlock() int {
	v := os.Getenv("CHAFFMEC_BLOCK")
	if v == "" {
		return 0
	}
	b, err := strconv.Atoi(v)
	if err != nil || b < 1 || b > 256 {
		return 0
	}
	return b
}

// BlockSize returns the calibrated engine dispatch width for the kernel
// shape (chain, U trajectories per run, horizon T): the CHAFFMEC_BLOCK
// pin if set, else the cached measurement for this shape, measuring and
// caching (in-process, and in the artifact store when one is
// configured) on first use.
func BlockSize(chain *markov.Chain, U, T int) int {
	if b := envBlock(); b > 0 {
		return b
	}
	if chain == nil || U < 1 || T < 2 {
		return DefaultBlockSize
	}
	key := geomKey{chain.NumStates(), U, T}
	if v, ok := cache.Load(key); ok {
		return v.(int)
	}
	b := loadOrMeasure(chain, U, T)
	cache.Store(key, b)
	return b
}

// storeKey is a calibration's content address. GOARCH is part of the
// key so a store shared across architectures does not cross-pollinate;
// same-arch hosts with different cache hierarchies are close enough
// that sharing beats re-measuring.
func storeKey(n, U, T int) string {
	return store.Key(calibVersion, runtime.GOARCH,
		strconv.Itoa(n), strconv.Itoa(U), strconv.Itoa(T))
}

type storedCalib struct {
	BlockSize int `json:"block_size"`
}

// loadOrMeasure consults the artifact store before paying for a
// measurement; store failures never fail the caller — a blob that won't
// decode or proposes a nonsense width is evicted and re-measured, and
// persisting a fresh measurement is best-effort.
func loadOrMeasure(chain *markov.Chain, U, T int) int {
	st := store.Default()
	var key string
	if st != nil {
		key = storeKey(chain.NumStates(), U, T)
		if blob, ok, err := st.Get(storeKind, key); err == nil && ok {
			var c storedCalib
			if err := json.Unmarshal(blob, &c); err == nil && validWidth(c.BlockSize) {
				return c.BlockSize
			}
			st.Delete(storeKind, key)
		}
	}
	best := fastest(chain, U, T)
	if st != nil {
		if blob, err := json.Marshal(storedCalib{BlockSize: best}); err == nil {
			st.Put(storeKind, key, blob)
		}
	}
	return best
}

func validWidth(b int) bool {
	for _, c := range Candidates {
		if b == c {
			return true
		}
	}
	return false
}

// fastest measures every candidate width against the live chain and
// kernel shape and returns the fastest. The measured kernel is the
// tiled ML block scorer (the batch hot path's dominant cost);
// trajectories are drawn once per width from a fixed calibration
// stream.
func fastest(chain *markov.Chain, U, T int) int {
	if T > calibHorizon {
		T = calibHorizon
	}
	det := detect.NewMLDetector(chain)
	var ns [len(Candidates)]float64
	for i, B := range Candidates {
		ns[i] = measure(chain, det, B, U, T)
	}
	return pick(ns[:])
}

// pick selects the fastest measured width (ns[i] is Candidates[i]'s ns
// per lane-slot, 0 when unmeasurable), breaking ties toward the smaller
// one (smaller blocks cancel faster and balance load better at equal
// throughput).
func pick(ns []float64) int {
	best, bestNs := DefaultBlockSize, 0.0
	for i, v := range ns {
		if v <= 0 {
			continue
		}
		if bestNs == 0 || v < bestNs {
			best, bestNs = Candidates[i], v
		}
	}
	return best
}

// measure times reps tiled sweeps of a B×U×T block and returns the best
// pass's ns per lane-slot (0 when the kernel shape cannot be scored).
func measure(chain *markov.Chain, det *detect.MLDetector, B, U, T int) float64 {
	ws := detect.GetWorkspace()
	defer ws.Release()
	blk := ws.Block(B, U, T)

	// Trajectories come from one fixed calibration stream: the kernel's
	// real gather pattern is what matters, not distinct run streams.
	src := rng.New(calibSeed)
	tr := make(markov.Trajectory, T)
	for r := 0; r < B; r++ {
		for u := 0; u < U; u++ {
			if err := chain.SampleInto(src, tr); err != nil {
				return 0
			}
			if err := blk.SetTrajectory(r, u, tr); err != nil {
				return 0
			}
		}
	}

	laneSlots := B * U * T
	reps := laneSlotBudget / (calibPasses * laneSlots)
	if reps < 1 {
		reps = 1
	}
	if err := det.ScoreBlock(blk, 0); err != nil { // warm caches, surface errors
		return 0
	}
	best := time.Duration(0)
	for pass := 0; pass < calibPasses; pass++ {
		begin := time.Now()
		for i := 0; i < reps; i++ {
			if err := det.ScoreBlock(blk, 0); err != nil {
				return 0
			}
		}
		d := time.Since(begin)
		if best == 0 || d < best {
			best = d
		}
	}
	return float64(best.Nanoseconds()) / float64(reps*laneSlots)
}

// ResetForTest drops the in-process calibration cache so tests can
// force re-measurement (the store cache is bypassed by running without
// a configured store).
func ResetForTest() {
	cache.Range(func(k, _ any) bool {
		cache.Delete(k)
		return true
	})
}
