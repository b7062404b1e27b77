package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"chaffmec/internal/rng"
)

// collect runs a toy experiment and returns each run's first RNG draw in
// accumulation order.
func collect(t *testing.T, runs, workers int, seed int64) []float64 {
	t.Helper()
	var out []float64
	err := Run(context.Background(), Options{Runs: runs, Seed: seed, Workers: workers}, Config[int, float64]{
		NewWorker: func(worker int) (int, error) { return worker, nil },
		RunBlock: func(_ int, start int, rngs []*rand.Rand, res []float64) error {
			for i, r := range rngs {
				res[i] = r.Float64()
			}
			return nil
		},
		Accumulate: func(run int, v float64) error {
			out = append(out, v)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	ref := collect(t, 137, 1, 42)
	if len(ref) != 137 {
		t.Fatalf("accumulated %d runs, want 137", len(ref))
	}
	for _, workers := range []int{4, runtime.GOMAXPROCS(0), 32} {
		got := collect(t, 137, workers, 42)
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("workers=%d: accumulation differs from single-worker order", workers)
		}
	}
}

func TestAccumulateInRunOrder(t *testing.T) {
	next := 0
	err := Run(context.Background(), Options{Runs: 200, Seed: 1, Workers: 8}, Config[struct{}, int]{
		RunBlock: identityBlock,
		Accumulate: func(run int, v int) error {
			if run != next || v != run {
				return fmt.Errorf("accumulate got run %d (value %d), want %d", run, v, next)
			}
			next++
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if next != 200 {
		t.Fatalf("accumulated %d runs, want 200", next)
	}
}

func TestRunErrorCancelsEarly(t *testing.T) {
	boom := errors.New("boom")
	executed := 0
	err := Run(context.Background(), Options{Runs: 100000, Seed: 1, Workers: 4}, Config[struct{}, int]{
		RunBlock: func(_ struct{}, start int, _ []*rand.Rand, res []int) error {
			if start <= 17 && 17 < start+len(res) {
				return boom
			}
			return identityBlock(struct{}{}, start, nil, res)
		},
		Accumulate: func(run int, v int) error {
			executed++
			return nil
		},
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	// The cancel path must stop dispatch long before the nominal 100000
	// runs; the exact count depends on scheduling, but it is bounded by
	// the dispatch window plus what was in flight.
	if executed > 1000 {
		t.Fatalf("%d runs accumulated after an early error", executed)
	}
}

func TestWorkerSetupErrorPropagates(t *testing.T) {
	boom := errors.New("no scratch")
	ran := false
	err := Run(context.Background(), Options{Runs: 10, Seed: 1, Workers: 3}, Config[int, int]{
		// Only the last worker fails — setup runs up front, so the error
		// is reported deterministically, before any run executes.
		NewWorker: func(worker int) (int, error) {
			if worker == 2 {
				return 0, boom
			}
			return worker, nil
		},
		RunBlock: func(_ int, start int, _ []*rand.Rand, res []int) error {
			ran = true
			return nil
		},
		Accumulate: func(int, int) error { return nil },
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped setup error", err)
	}
	if ran {
		t.Fatal("runs executed despite a worker setup failure")
	}
}

func TestAccumulateErrorPropagates(t *testing.T) {
	boom := errors.New("agg")
	err := Run(context.Background(), Options{Runs: 50, Seed: 1, Workers: 4}, Config[struct{}, int]{
		RunBlock: identityBlock,
		Accumulate: func(run int, v int) error {
			if run == 10 {
				return boom
			}
			return nil
		},
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped accumulate error", err)
	}
}

// TestMixSeedDistinctAndAvalanched: the per-run seeds the engine draws
// its run streams from (rng.Derive(seed, run)) are distinct across a
// campaign and decorrelated between adjacent runs.
func TestMixSeedDistinctAndAvalanched(t *testing.T) {
	seen := make(map[int64]bool)
	for run := 0; run < 2000; run++ {
		s := rng.Derive(12345, int64(run))
		if seen[s] {
			t.Fatalf("seed collision at run %d", run)
		}
		seen[s] = true
	}
	// Avalanche: adjacent run indices must flip close to half the 64 bits
	// on average (the weakness of the old xor+multiply-only mixing was
	// exactly here: low bits of adjacent runs stayed correlated).
	total := 0
	const pairs = 1000
	for run := 0; run < pairs; run++ {
		a := uint64(rng.Derive(7, int64(run)))
		b := uint64(rng.Derive(7, int64(run+1)))
		total += bits.OnesCount64(a ^ b)
	}
	avg := float64(total) / pairs
	if avg < 28 || avg > 36 {
		t.Fatalf("adjacent-run seeds differ in %.1f bits on average, want ≈ 32", avg)
	}
}

func TestSeriesStatsMatchesNaive(t *testing.T) {
	rng := rng.New(8)
	const T, n = 7, 400
	s := NewSeriesStats(T)
	data := make([][]float64, n)
	for i := range data {
		row := make([]float64, T)
		for k := range row {
			row[k] = rng.NormFloat64()
		}
		data[i] = row
		if err := s.Add(row); err != nil {
			t.Fatal(err)
		}
	}
	mean, stderr := s.Mean(), s.StdErr()
	for k := 0; k < T; k++ {
		var sum, sumSq float64
		for i := 0; i < n; i++ {
			sum += data[i][k]
			sumSq += data[i][k] * data[i][k]
		}
		m := sum / n
		variance := (sumSq - n*m*m) / (n - 1)
		se := math.Sqrt(variance / n)
		if math.Abs(mean[k]-m) > 1e-12 {
			t.Fatalf("mean[%d] = %v, want %v", k, mean[k], m)
		}
		if math.Abs(stderr[k]-se) > 1e-12 {
			t.Fatalf("stderr[%d] = %v, want %v", k, stderr[k], se)
		}
	}
	if s.N() != n {
		t.Fatalf("N = %d, want %d", s.N(), n)
	}
	if err := s.Add(make([]float64, T+1)); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestScalarStats(t *testing.T) {
	var s ScalarStats
	if s.Mean() != 0 || s.StdErr() != 0 {
		t.Fatal("zero-value stats not zero")
	}
	for _, v := range []float64{1, 2, 3, 4} {
		s.Add(v)
	}
	if s.N() != 4 || math.Abs(s.Mean()-2.5) > 1e-15 {
		t.Fatalf("mean = %v (n=%d), want 2.5 (4)", s.Mean(), s.N())
	}
	// Sample variance of {1,2,3,4} is 5/3; stderr = sqrt(5/3/4).
	want := math.Sqrt(5.0 / 3.0 / 4.0)
	if math.Abs(s.StdErr()-want) > 1e-15 {
		t.Fatalf("stderr = %v, want %v", s.StdErr(), want)
	}
}

// TestSeriesStatsMergeMatchesSequential shards one data set into
// position-aware partial accumulators, merges them, and demands the
// result agree BIT-FOR-BIT with a single sequential accumulation — the
// contract that makes cross-process sharding exact.
func TestSeriesStatsMergeMatchesSequential(t *testing.T) {
	rng := rng.New(17)
	const T, n = 5, 300
	data := make([][]float64, n)
	for i := range data {
		row := make([]float64, T)
		for k := range row {
			row[k] = rng.NormFloat64()*3 + 1
		}
		data[i] = row
	}

	seq := NewSeriesStats(T)
	for _, row := range data {
		if err := seq.Add(row); err != nil {
			t.Fatal(err)
		}
	}

	// Uneven shards, including an empty one; each shard accumulates at
	// its global offset (NewSeriesStatsAt), the requirement for exact
	// merges.
	bounds := []int{0, 7, 7, 180, n}
	merged := NewSeriesStats(T)
	for s := 0; s+1 < len(bounds); s++ {
		shard := NewSeriesStatsAt(T, bounds[s])
		for _, row := range data[bounds[s]:bounds[s+1]] {
			if err := shard.Add(row); err != nil {
				t.Fatal(err)
			}
		}
		if err := merged.Merge(shard); err != nil {
			t.Fatal(err)
		}
	}

	if merged.N() != seq.N() {
		t.Fatalf("merged N = %d, want %d", merged.N(), seq.N())
	}
	if !reflect.DeepEqual(seq.Mean(), merged.Mean()) {
		t.Fatalf("merged mean differs from sequential:\n%v\n%v", merged.Mean(), seq.Mean())
	}
	if !reflect.DeepEqual(seq.StdErr(), merged.StdErr()) {
		t.Fatalf("merged stderr differs from sequential:\n%v\n%v", merged.StdErr(), seq.StdErr())
	}
	if !reflect.DeepEqual(seq.Snapshot(), merged.Snapshot()) {
		t.Fatal("merged snapshot differs from sequential")
	}

	if err := merged.Merge(NewSeriesStats(T + 1)); err == nil {
		t.Fatal("length mismatch accepted")
	}
	// Merging a shard that does not start where the accumulator ends
	// (here: a second copy of the last shard) must fail loudly instead
	// of producing a silently wrong aggregate.
	dup := NewSeriesStatsAt(T, bounds[len(bounds)-2])
	if err := dup.Add(data[bounds[len(bounds)-2]]); err != nil {
		t.Fatal(err)
	}
	if err := merged.Merge(dup); err == nil {
		t.Fatal("overlapping shard accepted")
	}
}

func TestSeriesStatsMergeIntoEmpty(t *testing.T) {
	src := NewSeriesStats(3)
	for _, row := range [][]float64{{1, 2, 3}, {2, 3, 4}, {0, 1, 2}} {
		if err := src.Add(row); err != nil {
			t.Fatal(err)
		}
	}
	dst := NewSeriesStats(3)
	if err := dst.Merge(src); err != nil {
		t.Fatal(err)
	}
	if dst.N() != 3 || !reflect.DeepEqual(dst.Mean(), src.Mean()) || !reflect.DeepEqual(dst.StdErr(), src.StdErr()) {
		t.Fatalf("merge into empty: got n=%d mean=%v stderr=%v", dst.N(), dst.Mean(), dst.StdErr())
	}
	// Merging src must not have mutated it.
	if src.N() != 3 {
		t.Fatalf("source mutated: n=%d", src.N())
	}
}

func TestScalarStatsMergeMatchesSequential(t *testing.T) {
	rng := rng.New(23)
	vals := make([]float64, 257)
	for i := range vals {
		vals[i] = rng.ExpFloat64()
	}
	var seq ScalarStats
	for _, v := range vals {
		seq.Add(v)
	}
	a, b, c := NewScalarStatsAt(0), NewScalarStatsAt(40), NewScalarStatsAt(41)
	var merged ScalarStats
	for _, v := range vals[:40] {
		a.Add(v)
	}
	for _, v := range vals[40:41] {
		b.Add(v)
	}
	for _, v := range vals[41:] {
		c.Add(v)
	}
	for _, shard := range []ScalarStats{a, {}, b, c} { // empty shard is a no-op
		if err := merged.Merge(shard); err != nil {
			t.Fatal(err)
		}
	}
	if merged.N() != seq.N() {
		t.Fatalf("merged N = %d, want %d", merged.N(), seq.N())
	}
	if merged.Mean() != seq.Mean() {
		t.Fatalf("merged mean %v, sequential %v", merged.Mean(), seq.Mean())
	}
	if merged.StdErr() != seq.StdErr() {
		t.Fatalf("merged stderr %v, sequential %v", merged.StdErr(), seq.StdErr())
	}
	// Out-of-position merges fail loudly.
	if err := merged.Merge(b); err == nil {
		t.Fatal("overlapping scalar shard accepted")
	}
}

func TestOptionsNormalized(t *testing.T) {
	o := Options{}.Normalized()
	if o.Runs != 1000 || o.Workers != runtime.GOMAXPROCS(0) {
		t.Fatalf("defaults = %+v", o)
	}
	o = Options{Runs: 3, Workers: 64}.Normalized()
	if o.Workers != 3 {
		t.Fatalf("workers not clamped to runs: %+v", o)
	}
}

func TestNilCallbacksRejected(t *testing.T) {
	if err := Run(context.Background(), Options{Runs: 1}, Config[struct{}, int]{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if err := Run(context.Background(), Options{Runs: 1}, Config[struct{}, int]{
		Accumulate: func(int, int) error { return nil },
	}); err == nil {
		t.Fatal("nil RunBlock accepted")
	}
	if err := Run(context.Background(), Options{Runs: 1}, Config[struct{}, int]{
		RunBlock: identityBlock,
	}); err == nil {
		t.Fatal("nil Accumulate accepted")
	}
}

// identityBlock is the no-op block body: run i's result is its global
// index.
func identityBlock(_ struct{}, start int, _ []*rand.Rand, res []int) error {
	for i := range res {
		res[i] = start + i
	}
	return nil
}

// BenchmarkEngineOverhead isolates the engine's dispatch/reorder cost with
// a no-op block body.
func BenchmarkEngineOverhead(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		err := Run(context.Background(), Options{Runs: 1000, Seed: 1}, Config[struct{}, int]{
			RunBlock: func(_ struct{}, start int, _ []*rand.Rand, out []int) error {
				for i := range out {
					out[i] = start + i
				}
				return nil
			},
			Accumulate: func(int, int) error { return nil },
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
