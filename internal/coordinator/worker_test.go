package coordinator

import (
	"context"
	"errors"
	"io/fs"
	"path/filepath"
	"runtime"
	"testing"

	"chaffmec/internal/engine"
	"chaffmec/internal/report"
	"chaffmec/internal/scenario"
	"chaffmec/internal/store"
)

// traceShardSpec is a small trace campaign shaped like the benchmark's
// fleet campaign: one MO chaff, 1000 runs, so its shards are stream-free.
func traceShardSpec() scenario.Spec {
	return scenario.Spec{
		Name: "trace-shard", Kind: "trace", Strategy: "MO", NumChaffs: 1,
		Nodes: 40, Horizon: 30, Runs: 1000, ModelSeed: 11, Seed: 5,
	}
}

// chunkedShard runs a shard the way a worker runs a job that draws from
// its streams: as workerChunks contiguous chunk jobs, extended in order.
func chunkedShard(t *testing.T, sp scenario.Spec, start, end int) *report.Report {
	t.Helper()
	chunk := (end - start + workerChunks - 1) / workerChunks
	var parts []*report.Report
	for at := start; at < end; at += chunk {
		rep, err := scenario.RunJob(context.Background(), scenario.Job{Spec: sp, Shard: engine.Span(at, min(at+chunk, end))})
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, rep)
	}
	if len(parts) != workerChunks {
		t.Fatalf("reference split into %d chunks, want %d", len(parts), workerChunks)
	}
	if err := parts[0].Extend(parts[1:]...); err != nil {
		t.Fatal(err)
	}
	return parts[0]
}

// TestStreamFreeShardIsOneJob: a worker runs a stream-free trace shard
// as one chunk, bit-identical to the chunked run, and a warm 250-run
// shard stays under an allocation ceiling (on amd64 with go1.24 the
// chunked path makes 338 allocations here, the one-chunk path 42); a
// trace shard whose chaffs draw is still split into workerChunks
// chunks.
func TestStreamFreeShardIsOneJob(t *testing.T) {
	if testing.Short() {
		t.Skip("trace lab build")
	}
	sp := traceShardSpec()
	job := scenario.Job{Spec: sp, Shard: engine.Span(250, 500)}
	chunks := 0
	rep, err := runShard(context.Background(), job, func(int) { chunks++ })
	if err != nil {
		t.Fatal(err)
	}
	if chunks != 1 {
		t.Fatalf("stream-free shard ran as %d chunks, want 1", chunks)
	}
	if norm(t, rep) != norm(t, chunkedShard(t, sp, 250, 500)) {
		t.Fatal("one-chunk shard differs from the chunked run")
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := runShard(context.Background(), job, nil); err != nil {
			t.Fatal(err)
		}
	})
	const ceiling = 48
	if allocs > ceiling {
		t.Errorf("warm stream-free shard: %v allocations, want at most %d", allocs, ceiling)
	}

	im := sp
	im.Strategy, im.Runs = "IM", 80
	chunks = 0
	if _, err := runShard(context.Background(), scenario.Job{Spec: im, Shard: engine.Span(0, 80)}, func(int) { chunks++ }); err != nil {
		t.Fatal(err)
	}
	if chunks != workerChunks {
		t.Fatalf("IM shard ran as %d chunks, want %d", chunks, workerChunks)
	}
}

// TestCancelledStreamFreeShardHasNoPrefix: cancelled before it runs, a
// stream-free shard fails with no partial report to answer 206 with.
func TestCancelledStreamFreeShardHasNoPrefix(t *testing.T) {
	if testing.Short() {
		t.Skip("trace lab build")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := runShard(ctx, scenario.Job{Spec: traceShardSpec(), Shard: engine.Span(0, 250)}, nil)
	if !errors.Is(err, context.Canceled) || rep != nil {
		t.Fatalf("cancelled shard: report %v, err %v; want no report and context.Canceled", rep, err)
	}
}

// TestFreshStoreLayout: a campaign on a fresh store leaves exactly its
// journal at <root>/campaign/<key>, and nothing deeper.
func TestFreshStoreLayout(t *testing.T) {
	st, err := store.Open(t.TempDir() + "/artifacts")
	if err != nil {
		t.Fatal(err)
	}
	sp := testSpec()
	if _, err := RunFleet(context.Background(), scenario.Job{Spec: sp}, StaticOf(InProcessFleet(2)...), Options{Store: st}); err != nil {
		t.Fatal(err)
	}
	key, err := campaignKey(sp, runtime.GOARCH)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	err = filepath.WalkDir(st.Root(), func(path string, d fs.DirEntry, err error) error {
		if err != nil || path == st.Root() {
			return err
		}
		rel, err := filepath.Rel(st.Root(), path)
		got = append(got, rel)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"campaign", filepath.Join("campaign", key)}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("store holds %q, want %q", got, want)
	}
}
