package figures

import (
	"math/rand"
	"reflect"
	"testing"
)

// syntheticGrid runs the bar-figure grid harness over a 2×3 cell layout
// whose per-cell sampling noise is controlled: column 0 is deterministic,
// column 1 mildly noisy, column 2 very noisy.
func syntheticGrid(t *testing.T, opts GridOptions) *TraceBarResult {
	t.Helper()
	res := newTraceBarResult(2, []string{"det", "mild", "wild"})
	res.Users = []string{"u0", "u1"}
	var cells []gridCell
	for rank := 0; rank < 2; rank++ {
		for si := 0; si < 3; si++ {
			cells = append(cells, gridCell{rank, si})
		}
	}
	scale := []float64{0, 0.05, 0.8}
	if err := runGrid(res, cells, 7, opts, func(c gridCell, rng *rand.Rand) (float64, error) {
		return 0.5 + scale[c.si]*rng.NormFloat64(), nil
	}); err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRunGridFixed: without a target every cell executes exactly Runs
// repetitions and reports its error bar.
func TestRunGridFixed(t *testing.T) {
	res := syntheticGrid(t, GridOptions{Runs: 6})
	for u := range res.Acc {
		for s := range res.Strategies {
			if res.CellRuns[u][s] != 6 {
				t.Fatalf("cell (%d,%d) ran %d reps, want 6", u, s, res.CellRuns[u][s])
			}
		}
		if res.StdErr[u][0] != 0 {
			t.Fatalf("deterministic cell reports SE %v", res.StdErr[u][0])
		}
		if res.StdErr[u][2] <= res.StdErr[u][1] {
			t.Fatalf("error bars out of order: wild %v <= mild %v", res.StdErr[u][2], res.StdErr[u][1])
		}
	}
}

// TestRunGridAdaptive: with a target the per-cell repetition count is
// precision-driven — deterministic cells stop at the base sweep, the
// mildly noisy column converges below MaxRuns, the wild column exhausts
// MaxRuns — and the whole evaluation is deterministic across invocations.
func TestRunGridAdaptive(t *testing.T) {
	opts := GridOptions{Runs: 4, TargetSE: 0.02, MaxRuns: 64}
	res := syntheticGrid(t, opts)
	for u := range res.Acc {
		det, mild, wild := res.CellRuns[u][0], res.CellRuns[u][1], res.CellRuns[u][2]
		if det != opts.Runs {
			t.Fatalf("user %d: deterministic cell extended to %d reps", u, det)
		}
		// mild needs ~(0.05/0.02)² ≈ 7 reps; wild ~1600 ≫ MaxRuns.
		if mild <= opts.Runs || mild >= opts.MaxRuns {
			t.Fatalf("user %d: mild cell ran %d reps, want inside (%d,%d)", u, mild, opts.Runs, opts.MaxRuns)
		}
		if res.StdErr[u][1] > opts.TargetSE {
			t.Fatalf("user %d: mild cell stopped at SE %v > target", u, res.StdErr[u][1])
		}
		if wild != opts.MaxRuns {
			t.Fatalf("user %d: wild cell ran %d reps, want exactly MaxRuns %d", u, wild, opts.MaxRuns)
		}
	}
	again := syntheticGrid(t, opts)
	for u := range res.Acc {
		for s := range res.Strategies {
			if res.Acc[u][s] != again.Acc[u][s] || res.StdErr[u][s] != again.StdErr[u][s] ||
				res.CellRuns[u][s] != again.CellRuns[u][s] {
				t.Fatalf("cell (%d,%d): adaptive grid evaluation not deterministic", u, s)
			}
		}
	}
}

// TestRunGridMatchesPinnedValues pins the grid harness's cell values for
// a fixed repetition count and for an adaptive TargetSE schedule, so a
// change to how the engine hands cells their streams cannot go
// unnoticed. The values are exact.
func TestRunGridMatchesPinnedValues(t *testing.T) {
	cases := []struct {
		opts   GridOptions
		acc    [][]float64
		stdErr [][]float64
		runs   [][]int
	}{
		{
			opts:   GridOptions{Runs: 3},
			acc:    [][]float64{{0.5, 0.5583351337621985, -0.058569892307891086}, {0.5, 0.5028046449676482, 0.545247707040905}},
			stdErr: [][]float64{{0, 0.062498656552568616, 0.647684406649028}, {0, 0.04194285894484565, 0.677305119174732}},
			runs:   [][]int{{3, 3, 3}, {3, 3, 3}},
		},
		{
			opts:   GridOptions{Runs: 2, TargetSE: 0.05, MaxRuns: 16},
			acc:    [][]float64{{0.5, 0.5169506718177993, 0.4024736805137097}, {0.5, 0.46112937255033093, 0.45065062192139516}},
			stdErr: [][]float64{{0, 0.03446866060613796, 0.18009570666011637}, {0, 0.008193000441159476, 0.21500268336274256}},
			runs:   [][]int{{2, 4, 16}, {2, 2, 16}},
		},
	}
	for _, tc := range cases {
		res := syntheticGrid(t, tc.opts)
		if !reflect.DeepEqual(res.Acc, tc.acc) || !reflect.DeepEqual(res.StdErr, tc.stdErr) ||
			!reflect.DeepEqual(res.CellRuns, tc.runs) {
			t.Fatalf("%+v: acc %v, SE %v, runs %v; want %v, %v, %v",
				tc.opts, res.Acc, res.StdErr, res.CellRuns, tc.acc, tc.stdErr, tc.runs)
		}
	}
}
