package engine

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"chaffmec/internal/rng"
)

// statsOver runs a toy experiment over the selected shard and returns
// the shard's positioned accumulators.
func statsOver(t *testing.T, runs int, seed int64, shard Shard) (*SeriesStats, ScalarStats) {
	t.Helper()
	opts := Options{Runs: runs, Seed: seed, Workers: 3, Shard: shard}
	start, _ := opts.Range()
	series := NewSeriesStatsAt(4, start)
	scalar := NewScalarStatsAt(start)
	err := Run(context.Background(), opts, Config[struct{}, []float64]{
		RunBlock: func(_ struct{}, start int, rngs []*rand.Rand, out [][]float64) error {
			for r, rng := range rngs {
				row := make([]float64, 4)
				for i := range row {
					row[i] = rng.NormFloat64()
				}
				out[r] = row
			}
			return nil
		},
		Accumulate: func(run int, row []float64) error {
			scalar.Add(row[0])
			return series.Add(row)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return series, scalar
}

// TestShardedRunsMergeBitIdentical is the engine-level form of the
// shard/merge-equals-whole contract: complementary shards executed
// separately (as two processes would) and merged reproduce the
// single-range aggregate bit-for-bit, including for shard counts that do
// not divide the run count.
func TestShardedRunsMergeBitIdentical(t *testing.T) {
	const runs, seed = 103, int64(29)
	whole, wholeScalar := statsOver(t, runs, seed, Shard{})
	for _, count := range []int{2, 3, 7} {
		merged := NewSeriesStats(4)
		var mergedScalar ScalarStats
		total := 0
		for i := 0; i < count; i++ {
			part, partScalar := statsOver(t, runs, seed, Shard{Index: i, Count: count})
			total += part.N()
			if err := merged.Merge(part); err != nil {
				t.Fatal(err)
			}
			if err := mergedScalar.Merge(partScalar); err != nil {
				t.Fatal(err)
			}
		}
		if total != runs || merged.N() != runs {
			t.Fatalf("count=%d: shards cover %d runs, want %d", count, total, runs)
		}
		if !reflect.DeepEqual(whole.Snapshot(), merged.Snapshot()) {
			t.Fatalf("count=%d: merged series snapshot differs from whole run", count)
		}
		if !reflect.DeepEqual(whole.Mean(), merged.Mean()) || !reflect.DeepEqual(whole.StdErr(), merged.StdErr()) {
			t.Fatalf("count=%d: merged series aggregates differ from whole run", count)
		}
		if mergedScalar.Mean() != wholeScalar.Mean() || mergedScalar.StdErr() != wholeScalar.StdErr() {
			t.Fatalf("count=%d: merged scalar aggregates differ from whole run", count)
		}
	}
}

func TestShardValidateAndRange(t *testing.T) {
	for _, bad := range []Shard{{Index: -1, Count: 2}, {Index: 2, Count: 2}, {Index: 0, Count: -1}, {Index: 1, Count: 0}} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("shard %+v accepted", bad)
		}
	}
	if err := (Shard{}).Validate(); err != nil {
		t.Fatal(err)
	}
	// Ranges tile the whole run count.
	const total = 10
	next := 0
	for i := 0; i < 3; i++ {
		start, end := (Shard{Index: i, Count: 3}).Range(total)
		if start != next || end < start {
			t.Fatalf("shard %d/3 covers [%d,%d), want start %d", i, start, end, next)
		}
		next = end
	}
	if next != total {
		t.Fatalf("shards cover %d of %d runs", next, total)
	}
	if err := Run(context.Background(), Options{Runs: 4, Shard: Shard{Index: 9, Count: 3}}, Config[struct{}, int]{
		RunBlock:   identityBlock,
		Accumulate: func(int, int) error { return nil },
	}); err == nil {
		t.Fatal("invalid shard accepted by Run")
	}
}

// TestShardRunsGlobalIndices checks a shard executes exactly its global
// slice with the global (seed, run) streams — the property that makes a
// shard's work independent of which process performs it.
func TestShardRunsGlobalIndices(t *testing.T) {
	var got []int
	var draws []float64
	err := Run(context.Background(), Options{Runs: 10, Seed: 5, Workers: 1, Shard: Shard{Index: 1, Count: 3}}, Config[struct{}, [2]float64]{
		RunBlock: func(_ struct{}, start int, rngs []*rand.Rand, out [][2]float64) error {
			for i, rng := range rngs {
				out[i] = [2]float64{float64(start + i), rng.Float64()}
			}
			return nil
		},
		Accumulate: func(run int, v [2]float64) error {
			got = append(got, run)
			draws = append(draws, v[1])
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []int{3, 4, 5}) {
		t.Fatalf("shard 1/3 of 10 ran %v, want [3 4 5]", got)
	}
	for i, run := range got {
		if want := rng.NewRun(5, run).Float64(); draws[i] != want {
			t.Fatalf("run %d drew %v, want the global (seed,run) stream's %v", run, draws[i], want)
		}
	}
}

// TestRunContextCancel proves the engine stops promptly when the caller's
// context is cancelled mid-experiment and surfaces the cancellation.
func TestRunContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var once sync.Once
	accumulated := 0
	done := make(chan error, 1)
	go func() {
		done <- Run(ctx, Options{Runs: 1_000_000, Seed: 1, Workers: 2}, Config[struct{}, int]{
			RunBlock: func(_ struct{}, start int, _ []*rand.Rand, out []int) error {
				once.Do(func() { close(started) })
				time.Sleep(100 * time.Microsecond)
				return identityBlock(struct{}{}, start, nil, out)
			},
			Accumulate: func(run int, v int) error {
				accumulated++
				return nil
			},
		})
	}()
	<-started
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("engine did not stop after cancellation")
	}
	if accumulated > 100_000 {
		t.Fatalf("%d runs accumulated after cancellation", accumulated)
	}

	// A context cancelled before the call returns immediately.
	pre, preCancel := context.WithCancel(context.Background())
	preCancel()
	err := Run(pre, Options{Runs: 10}, Config[struct{}, int]{
		RunBlock:   identityBlock,
		Accumulate: func(int, int) error { return nil },
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled ctx: err = %v", err)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := NewSeriesStatsAt(3, 5)
	for i := 0; i < 11; i++ {
		if err := s.Add([]float64{float64(i), float64(i) * 0.5, -float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	snap := s.Snapshot()
	blob, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back SeriesSnapshot
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	restored, err := SeriesFromSnapshot(back)
	if err != nil {
		t.Fatal(err)
	}
	// JSON float64 round-trips are exact (shortest-representation
	// encoding), so the restored accumulator is bitwise identical.
	if !reflect.DeepEqual(restored.Snapshot(), snap) {
		t.Fatal("snapshot changed across JSON round trip")
	}
	if !reflect.DeepEqual(restored.Mean(), s.Mean()) || !reflect.DeepEqual(restored.StdErr(), s.StdErr()) {
		t.Fatal("restored aggregates differ")
	}

	sc := NewScalarStatsAt(2)
	for i := 0; i < 5; i++ {
		sc.Add(float64(i) * 1.25)
	}
	scBlob, err := json.Marshal(sc.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var scBack ScalarSnapshot
	if err := json.Unmarshal(scBlob, &scBack); err != nil {
		t.Fatal(err)
	}
	scRestored, err := ScalarFromSnapshot(scBack)
	if err != nil {
		t.Fatal(err)
	}
	if scRestored.Mean() != sc.Mean() || scRestored.StdErr() != sc.StdErr() || scRestored.N() != sc.N() {
		t.Fatal("restored scalar aggregates differ")
	}

	// Corrupted snapshots are rejected.
	bad := s.Snapshot()
	bad.Nodes[0].Start += 3
	if _, err := SeriesFromSnapshot(bad); err == nil {
		t.Fatal("non-contiguous snapshot accepted")
	}
	bad = s.Snapshot()
	bad.Nodes[len(bad.Nodes)-1].Mean = bad.Nodes[len(bad.Nodes)-1].Mean[:1]
	if _, err := SeriesFromSnapshot(bad); err == nil {
		t.Fatal("truncated snapshot series accepted")
	}
	bad = s.Snapshot()
	bad.Next += 1
	if _, err := SeriesFromSnapshot(bad); err == nil {
		t.Fatal("inconsistent next index accepted")
	}
}

// TestScalarStatsCopySafe guards the value semantics of ScalarStats: a
// copy taken as a snapshot must stay intact while the original keeps
// accumulating (collapse must not mutate shared spine elements in
// place).
func TestScalarStatsCopySafe(t *testing.T) {
	var s ScalarStats
	for i := 0; i < 6; i++ {
		s.Add(float64(i))
	}
	snap := s
	wantMean, wantN := snap.Mean(), snap.N()
	// These Adds trigger collapses that rewrite the spine tail; the
	// snapshot must not observe them.
	s.Add(6)
	s.Add(7)
	if snap.Mean() != wantMean || snap.N() != wantN {
		t.Fatalf("snapshot mutated by later Adds: mean %v (want %v), n %d (want %d)",
			snap.Mean(), wantMean, snap.N(), wantN)
	}
	if s.N() != 8 || s.Mean() != 3.5 {
		t.Fatalf("original lost adds: n %d mean %v", s.N(), s.Mean())
	}
}
