package scenario

import (
	"context"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"chaffmec/internal/engine"
	"chaffmec/internal/figures"
	"chaffmec/internal/report"
	"chaffmec/internal/rng"
)

// fixedSeriesComputed counts the stream-free series computed so far.
func fixedSeriesComputed() int {
	c := &traceLabCache
	c.Lock()
	defer c.Unlock()
	return c.series
}

// TestTraceFixedSeriesOncePerLab runs each trace job as 12 concurrent
// chunk jobs on a cold cache, the way a worker runs its shard: MO under
// the basic eavesdropper, OO under the strategy-aware one and the
// chaff-free baseline each compute their one series once for the lab,
// IM×3 (whose chaffs draw from the run streams) never touches the
// series cache, every job's chunks extend to the whole job's report,
// and the cached series still equal the scalar oracle's run bit for bit
// after every job has read them.
func TestTraceFixedSeriesOncePerLab(t *testing.T) {
	if testing.Short() {
		t.Skip("trace lab build")
	}
	ResetTraceLabCache()
	t.Cleanup(ResetTraceLabCache)
	before := fixedSeriesComputed()

	base := Spec{Kind: "trace", Nodes: 40, Horizon: 25, Runs: 48, Seed: 6}
	mo := base
	mo.Strategy, mo.NumChaffs = "MO", 1
	ooAdv := base
	ooAdv.Strategy, ooAdv.NumChaffs, ooAdv.Advanced = "OO", 1, true
	im3 := base
	im3.Strategy, im3.NumChaffs = "IM", 3
	specs := map[string]Spec{"MO": mo, "OO-advanced": ooAdv, "chaff-free": base, "IM3": im3}
	for _, name := range []string{"MO", "OO-advanced", "chaff-free", "IM3"} {
		sp := specs[name]
		const chunks = 12
		chunk := sp.Runs / chunks
		reps := make([]*report.Report, chunks)
		var wg sync.WaitGroup
		for i := range reps {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				rep, err := RunJob(context.Background(), Job{Spec: sp, Shard: engine.Span(i*chunk, (i+1)*chunk)})
				if err != nil {
					t.Error(err)
					return
				}
				reps[i] = rep
			}(i)
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		acc := reps[0]
		if err := acc.Extend(reps[1:]...); err != nil {
			t.Fatal(err)
		}
		whole, err := RunJob(context.Background(), Job{Spec: sp})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := marshalStable(t, acc), marshalStable(t, whole); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %d chunks extend to\n%s\nwant the whole job's\n%s", name, chunks, got, want)
		}
	}
	if got := fixedSeriesComputed() - before; got != 3 {
		t.Fatalf("%d fixed series computed for 3 stream-free specs over 39 jobs each, want 3", got)
	}

	entry, err := sharedTraceEntry(figures.TraceConfig{Seed: base.Seed, Nodes: base.Nodes, Minutes: base.Horizon})
	if err != nil {
		t.Fatal(err)
	}
	_, ranking, err := entry.view()
	if err != nil {
		t.Fatal(err)
	}
	user := ranking[0]
	entry.seriesMu.Lock()
	cached := maps.Clone(entry.series)
	entry.seriesMu.Unlock()
	keys := map[string]traceSeriesKey{
		"MO":          {strategy: "MO", chaffs: 1, user: user},
		"OO-advanced": {strategy: "OO", chaffs: 1, user: user, advanced: true},
		"chaff-free":  {user: user},
	}
	if len(cached) != len(keys) {
		t.Fatalf("%d series cached, want %d (IM draws and must not be cached): %v", len(cached), len(keys), cached)
	}
	for name, key := range keys {
		fs, ok := cached[key]
		if !ok {
			t.Fatalf("%s: no series cached under %+v", name, key)
		}
		one := specs[name]
		one.Runs = 1
		want := traceScalar(t, one).Nodes[0].Mean
		if !slices.EqualFunc(fs.series, want, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
			t.Fatalf("%s: cached series %v, want the oracle's %v", name, fs.series, want)
		}
	}
}

// TestTraceFixedChunkAllocs: once its series is cached, a 32-run chunk
// of a stream-free (MO) trace job allocates nothing, where a chunk of
// IM chaffs, which draw, allocates its block's one result backing.
func TestTraceFixedChunkAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("trace lab build")
	}
	const width = 32
	rngs := make([]*rand.Rand, width)
	for i := range rngs {
		rngs[i] = rng.NewRun(6, i)
	}
	out := make([][]float64, width)
	for _, c := range []struct {
		strategy string
		want     float64
	}{{"MO", 0}, {"IM", 1}} {
		job, err := newTraceJob(Spec{Kind: "trace", Nodes: 40, Horizon: 25, Seed: 6, Strategy: c.strategy, NumChaffs: 1})
		if err != nil {
			t.Fatal(err)
		}
		var w *traceWorker
		if job.newWorker != nil {
			if w, err = job.newWorker(0); err != nil {
				t.Fatal(err)
			}
			defer job.freeWorker(w)
		}
		if err := job.runBlock(w, 0, rngs, out); err != nil { // warm the series
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(20, func() {
			if err := job.runBlock(w, 0, rngs, out); err != nil {
				t.Fatal(err)
			}
		})
		if got != c.want {
			t.Errorf("%s: %v allocations per warm %d-run chunk, want %v", c.strategy, got, width, c.want)
		}
	}
}
