package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"chaffmec/internal/rng"
)

// TestRunBlockBankStreams checks every bank rng against rng.NewRun
// directly, including multiple draws per run (the bank sources must be
// repositioned, not shared), at the default chunking and at pinned
// block widths from below one run per chunk to the dispatch cap.
func TestRunBlockBankStreams(t *testing.T) {
	const runs, seed = 97, 7
	for _, block := range []int{0, 1, 3, 16, 256} {
		got := make(map[int][3]float64, runs)
		err := Run(nil, Options{Runs: runs, Seed: seed, Workers: 5}, Config[struct{}, [3]float64]{
			RunBlock: func(_ struct{}, start int, rngs []*rand.Rand, res [][3]float64) error {
				if len(rngs) != len(res) {
					return fmt.Errorf("bank size %d != out size %d", len(rngs), len(res))
				}
				for i, r := range rngs {
					res[i] = [3]float64{r.Float64(), r.Float64(), r.Float64()}
				}
				return nil
			},
			BlockSize: block,
			Accumulate: func(run int, v [3]float64) error {
				got[run] = v
				return nil
			},
		})
		if err != nil {
			t.Fatalf("BlockSize %d: %v", block, err)
		}
		for run := 0; run < runs; run++ {
			r := rng.NewRun(seed, run)
			want := [3]float64{r.Float64(), r.Float64(), r.Float64()}
			if got[run] != want {
				t.Fatalf("BlockSize %d: run %d drew %v, want private stream %v", block, run, got[run], want)
			}
		}
	}
}

// TestRunBlockErrorAttribution pins that a failing block reports the
// block's first run and cancels the experiment early.
func TestRunBlockErrorAttribution(t *testing.T) {
	boom := errors.New("boom")
	executed := 0
	err := Run(nil, Options{Runs: 100000, Seed: 1, Workers: 4}, Config[struct{}, int]{
		RunBlock: func(_ struct{}, start int, rngs []*rand.Rand, res []int) error {
			if start <= 300 && 300 < start+len(res) {
				return boom
			}
			for i := range res {
				res[i] = start + i
			}
			return nil
		},
		Accumulate: func(run int, v int) error {
			executed++
			return nil
		},
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if executed > 2000 {
		t.Fatalf("%d runs accumulated after an early block error", executed)
	}
}

// TestExactlyOneOfRunAndRunBlock pins that RunBlock is the one per-run
// callback: a config without it is rejected, and a config with it alone
// executes every run exactly once.
func TestExactlyOneOfRunAndRunBlock(t *testing.T) {
	seen := 0
	acc := func(run int, v int) error {
		if v != run {
			return fmt.Errorf("run %d accumulated %d", run, v)
		}
		seen++
		return nil
	}
	if err := Run(nil, Options{Runs: 4}, Config[struct{}, int]{Accumulate: acc}); err == nil {
		t.Fatal("config without RunBlock accepted")
	}
	if err := Run(nil, Options{Runs: 4, Workers: 2}, Config[struct{}, int]{RunBlock: identityBlock, Accumulate: acc}); err != nil {
		t.Fatalf("config with RunBlock alone rejected: %v", err)
	}
	if seen != 4 {
		t.Fatalf("accumulated %d runs, want 4", seen)
	}
}

// TestRunBlockSharded checks batch dispatch under explicit shard ranges:
// the union of complementary shard accumulations equals the whole run.
func TestRunBlockSharded(t *testing.T) {
	const runs, seed = 64, 9
	whole := collect(t, runs, 3, seed)
	var merged []float64
	for idx := 0; idx < 4; idx++ {
		err := Run(nil, Options{Runs: runs, Seed: seed, Workers: 2, Shard: Shard{Index: idx, Count: 4}},
			Config[struct{}, float64]{
				RunBlock: func(_ struct{}, start int, rngs []*rand.Rand, res []float64) error {
					for i, r := range rngs {
						res[i] = r.Float64()
					}
					return nil
				},
				Accumulate: func(run int, v float64) error {
					merged = append(merged, v)
					return nil
				},
			})
		if err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(whole, merged) {
		t.Fatal("sharded RunBlock accumulation differs from whole-range run")
	}
}
