package engine

import (
	"context"
	"errors"
	"math/rand"
	"runtime/debug"
	"testing"
)

func TestFreeWorkerReleasesEveryState(t *testing.T) {
	built, freed := 0, 0
	err := Run(context.Background(), Options{Runs: 32, Workers: 3}, Config[int, int]{
		NewWorker: func(w int) (int, error) {
			built++
			return w, nil
		},
		FreeWorker: func(w int) { freed++ },
		RunBlock:   func(w, start int, rngs []*rand.Rand, out []int) error { return nil },
		Accumulate: func(run, r int) error { return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if built != 3 || freed != built {
		t.Fatalf("built %d workers, freed %d", built, freed)
	}
}

func TestFreeWorkerReleasesOnSetupFailure(t *testing.T) {
	boom := errors.New("boom")
	freed := 0
	err := Run(context.Background(), Options{Runs: 32, Workers: 3}, Config[int, int]{
		NewWorker: func(w int) (int, error) {
			if w == 2 {
				return 0, boom
			}
			return w, nil
		},
		FreeWorker: func(w int) { freed++ },
		RunBlock:   func(w, start int, rngs []*rand.Rand, out []int) error { return nil },
		Accumulate: func(run, r int) error { return nil },
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the setup failure", err)
	}
	if freed != 2 {
		t.Fatalf("freed %d states after setup failure, want the 2 built", freed)
	}
}

// TestBlockRunsReusePooledBank pins the round-loop optimization: a block
// config's per-worker rng bank comes from a pool, so consecutive engine
// runs (adaptive rounds) stop paying ~2 allocations per stream per
// round. With Runs=1024 and one worker the chunk is 256 streams — a
// rebuilt bank alone would cost 500+ allocations, far above the bound.
func TestBlockRunsReusePooledBank(t *testing.T) {
	// Automatic GC clears sync.Pool generations mid-measurement; disable
	// it so the test measures the pooled steady state.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	opts := Options{Runs: 1024, Seed: 1, Workers: 1}
	cfg := Config[struct{}, int]{
		RunBlock: func(_ struct{}, start int, rngs []*rand.Rand, out []int) error {
			for i := range out {
				out[i] = rngs[i].Intn(10)
			}
			return nil
		},
		Accumulate: func(run, r int) error { return nil },
	}
	run := func() {
		if err := Run(context.Background(), opts, cfg); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the pool
	if allocs := testing.AllocsPerRun(5, run); allocs > 150 {
		t.Fatalf("steady-state block run allocates %.0f objects, want <= 150 (rng bank not pooled?)", allocs)
	}
}
