package engine

import "testing"

// chunkCases enumerates adversarial (runs, workers) combinations around
// the divisor boundaries, the clamp points and the dispatch loop's
// remainder handling.
func chunkCases() (runs, workers []int) {
	runs = []int{1, 2, 3, 4, 5, 7, 16, 63, 64, 65, 255, 256, 257, 999, 1000, 1023, 1024, 1025, 4096, 100000, 1 << 20}
	workers = []int{1, 2, 3, 4, 5, 7, 8, 16, 61, 64, 128}
	return runs, workers
}

// coverage replays Run's dispatch loop and verifies the chunks tile the
// half-open range [first, last) exactly: contiguous, non-overlapping,
// nothing dropped past the end.
func coverage(t *testing.T, first, last, chunk int) int {
	t.Helper()
	count := 0
	next := first
	for start := first; start < last; start += chunk {
		end := start + chunk
		if end > last {
			end = last
		}
		if start != next {
			t.Fatalf("chunk starts at %d, want %d (gap or overlap)", start, next)
		}
		if end <= start {
			t.Fatalf("empty chunk [%d,%d)", start, end)
		}
		next = end
		count++
	}
	if next != last {
		t.Fatalf("dispatch covered [%d,%d), want [%d,%d)", first, next, first, last)
	}
	return count
}

// TestChunkSizeInvariants pins chunkSize's documented contract over
// adversarial runs/workers combinations: widths stay within [1, 256],
// every worker sees at least a few chunks (when there are enough runs to
// go around), the chunk count stays bounded rather than degenerating to
// one-run dispatch, and the dispatch loop covers [first, last) exactly.
func TestChunkSizeInvariants(t *testing.T) {
	runsCases, workersCases := chunkCases()
	for _, runs := range runsCases {
		for _, workers := range workersCases {
			c := chunkSize(runs, workers)
			if c < 1 || c > 256 {
				t.Fatalf("chunkSize(%d,%d) = %d outside [1,256]", runs, workers, c)
			}
			count := coverage(t, 0, runs, c)
			// Load balance: at least min(runs, 4·workers) chunks, so no
			// worker can starve while another holds a mega-chunk.
			if want := 4 * workers; count < want && count < runs {
				t.Fatalf("chunkSize(%d,%d) = %d yields %d chunks, want ≥ min(%d, %d)",
					runs, workers, c, count, runs, want)
			}
			// Amortization: when the divisor (not the clamps) chose the
			// width, the count stays within 8·workers — dispatch overhead
			// does not grow linearly with the run count.
			if c > 1 && c < 256 && count > 8*workers {
				t.Fatalf("chunkSize(%d,%d) = %d yields %d chunks, want ≤ %d",
					runs, workers, c, count, 8*workers)
			}
		}
	}
}

// TestChunkSizeShardRanges re-checks exact coverage for explicit
// (non-zero-based) shard ranges, the round drivers' dispatch shape.
func TestChunkSizeShardRanges(t *testing.T) {
	for _, span := range [][2]int{{0, 1}, {5, 6}, {100, 357}, {999, 2000}, {1, 1 << 16}} {
		first, last := span[0], span[1]
		for _, workers := range []int{1, 3, 8, 64} {
			c := chunkSize(last-first, workers)
			coverage(t, first, last, c)
		}
	}
}

// TestDispatchChunk pins the block-width override: honored when
// every worker still gets a full chunk, clamped to runs/workers when
// runs are scarce, bounded like chunkSize, and inert when unset.
func TestDispatchChunk(t *testing.T) {
	cases := []struct {
		runs, workers, block, want int
	}{
		{runs: 1000, workers: 4, block: 0, want: chunkSize(1000, 4)}, // unset → heuristic
		{runs: 1000, workers: 4, block: 128, want: 128},              // plentiful runs → honored
		{runs: 1000, workers: 4, block: 64, want: 64},
		{runs: 64, workers: 8, block: 128, want: 8},       // scarce → runs/workers
		{runs: 4, workers: 8, block: 32, want: 1},         // fewer runs than workers → 1
		{runs: 100000, workers: 1, block: 999, want: 256}, // upper clamp
	}
	for _, tc := range cases {
		if got := dispatchChunk(tc.runs, tc.workers, tc.block); got != tc.want {
			t.Fatalf("dispatchChunk(%d,%d,%d) = %d, want %d", tc.runs, tc.workers, tc.block, got, tc.want)
		}
	}
	runsCases, workersCases := chunkCases()
	for _, runs := range runsCases {
		for _, workers := range workersCases {
			for _, block := range []int{16, 32, 64, 128, 256} {
				c := dispatchChunk(runs, workers, block)
				if c < 1 || c > 256 || c > block {
					t.Fatalf("dispatchChunk(%d,%d,%d) = %d outside [1,min(256,block)]", runs, workers, block, c)
				}
				coverage(t, 0, runs, c)
			}
		}
	}
}
