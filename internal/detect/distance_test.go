package detect

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"chaffmec/internal/markov"
)

func TestExpectedDistanceSeries(t *testing.T) {
	// Cells on a line at x = cell index; unit spacing.
	coord := func(cell int) (float64, float64) { return float64(cell), 0 }
	user := markov.Trajectory{0, 1, 2}
	guess := markov.Trajectory{3, 1, 0}
	dets := [][]int{{1}, {1}, {0, 1}} // picks guess, guess, tie
	ds, err := ExpectedDistanceSeries(dets, []markov.Trajectory{user, guess}, 0, coord)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 0, 1} // |3-0|; |1-1|; avg(|2-2|, |0-2|) = 1
	for i := range want {
		if math.Abs(ds[i]-want[i]) > 1e-12 {
			t.Fatalf("slot %d: distance %v, want %v", i, ds[i], want[i])
		}
	}
}

func TestExpectedDistanceSeriesValidation(t *testing.T) {
	coord := func(cell int) (float64, float64) { return 0, 0 }
	trs := []markov.Trajectory{{0, 1}}
	if _, err := ExpectedDistanceSeries([][]int{{0}, {0}}, trs, 2, coord); err == nil {
		t.Fatal("bad user index accepted")
	}
	if _, err := ExpectedDistanceSeries([][]int{{0}, {0}}, trs, 0, nil); err == nil {
		t.Fatal("nil coord accepted")
	}
	if _, err := ExpectedDistanceSeries([][]int{{0}}, trs, 0, coord); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := ExpectedDistanceSeries([][]int{{}, {}}, trs, 0, coord); err == nil {
		t.Fatal("empty tie set accepted")
	}
}

func TestExpectedDistanceZeroWhenTracked(t *testing.T) {
	coord := func(cell int) (float64, float64) { return float64(cell % 3), float64(cell / 3) }
	tr := markov.Trajectory{4, 5, 6}
	dets := [][]int{{0}, {0}, {0}}
	ds, err := ExpectedDistanceSeries(dets, []markov.Trajectory{tr}, 0, coord)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range ds {
		if d != 0 {
			t.Fatalf("slot %d: distance %v, want 0", i, d)
		}
	}
}

// ExpectedDistanceSeries returns, for each slot, the expected physical
// distance between the eavesdropper's location estimate (the cell of the
// trajectory he picks, uniform over the tie set) and the user's true cell.
// coord maps a cell index to planar coordinates. This complements the
// paper's binary tracking accuracy with a geographic-error privacy metric:
// a defense can be judged by how far it displaces the adversary's
// estimate, not just how often the estimate is exactly right.
func ExpectedDistanceSeries(dets [][]int, trs []markov.Trajectory, userIdx int, coord func(cell int) (x, y float64)) ([]float64, error) {
	if userIdx < 0 || userIdx >= len(trs) {
		return nil, fmt.Errorf("detect: user index %d outside [0,%d)", userIdx, len(trs))
	}
	if coord == nil {
		return nil, errors.New("detect: nil coordinate map")
	}
	if len(dets) != len(trs[userIdx]) {
		return nil, errors.New("detect: detections/trajectory length mismatch")
	}
	user := trs[userIdx]
	out := make([]float64, len(dets))
	for t, set := range dets {
		if len(set) == 0 {
			return nil, fmt.Errorf("detect: empty tie set at slot %d", t)
		}
		ux, uy := coord(user[t])
		sum := 0.0
		for _, u := range set {
			gx, gy := coord(trs[u][t])
			dx, dy := gx-ux, gy-uy
			sum += math.Sqrt(dx*dx + dy*dy)
		}
		out[t] = sum / float64(len(set))
	}
	return out, nil
}
