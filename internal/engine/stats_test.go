package engine

import (
	"math"
	"math/rand"
	"testing"

	"chaffmec/internal/rng"
)

// sameSnapshotBits reports whether two snapshots hold the same spine
// with the same float64 bits in every slot (NaN payloads and the sign
// of zero included).
func sameSnapshotBits(a, b SeriesSnapshot) bool {
	if a.T != b.T || a.Next != b.Next || len(a.Nodes) != len(b.Nodes) {
		return false
	}
	same := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	}
	for i, n := range a.Nodes {
		m := b.Nodes[i]
		if n.Start != m.Start || n.N != m.N || !same(n.Mean, m.Mean) || !same(n.M2, m.M2) {
			return false
		}
	}
	return true
}

// fuzzSeries draws a length-T series from a palette of edge values
// (NaN, ±0, ±Inf, subnormals, huge) and ordinary ones.
func fuzzSeries(r *rand.Rand, T int) []float64 {
	palette := []float64{math.NaN(), 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		5e-324, -1e308, 1e150, 1, 0.5}
	x := make([]float64, T)
	for i := range x {
		if r.Intn(3) == 0 {
			x[i] = palette[r.Intn(len(palette))]
		} else {
			x[i] = r.NormFloat64()
		}
	}
	return x
}

// FuzzAddRepeated: n runs of one series folded by AddRepeated leave
// exactly the spine n calls of Add leave — every node's range and every
// float's bits — after any start and any prefix of other samples, and
// the two accumulators stay interchangeable for the sample after.
func FuzzAddRepeated(f *testing.F) {
	f.Add(int64(1), uint16(0), uint8(0), uint16(32), uint8(3))
	f.Add(int64(2), uint16(5), uint8(3), uint16(600), uint8(1))
	f.Add(int64(3), uint16(1023), uint8(1), uint16(1), uint8(4))
	f.Add(int64(4), uint16(7), uint8(9), uint16(0), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, start uint16, prefix uint8, n uint16, width uint8) {
		r := rng.New(seed)
		T := int(width%6) + 1
		reps := int(n % 1100)
		seq := NewSeriesStatsAt(T, int(start))
		closed := NewSeriesStatsAt(T, int(start))
		for i := 0; i < int(prefix%40); i++ {
			x := fuzzSeries(r, T)
			if err := seq.Add(x); err != nil {
				t.Fatal(err)
			}
			if err := closed.Add(x); err != nil {
				t.Fatal(err)
			}
		}
		x := fuzzSeries(r, T)
		for i := 0; i < reps; i++ {
			if err := seq.Add(x); err != nil {
				t.Fatal(err)
			}
		}
		if err := closed.AddRepeated(x, reps); err != nil {
			t.Fatal(err)
		}
		if !sameSnapshotBits(closed.Snapshot(), seq.Snapshot()) {
			t.Fatalf("AddRepeated(x, %d) at run %d after %d samples:\n%+v\nwant %d Adds':\n%+v",
				reps, int(start)+int(prefix%40), prefix%40, closed.Snapshot(), reps, seq.Snapshot())
		}
		after := fuzzSeries(r, T)
		if err := seq.Add(after); err != nil {
			t.Fatal(err)
		}
		if err := closed.Add(after); err != nil {
			t.Fatal(err)
		}
		if !sameSnapshotBits(closed.Snapshot(), seq.Snapshot()) {
			t.Fatal("the accumulators diverge on the sample after the repeated run")
		}
	})
}

// TestAddRepeatedValidates: a wrong series length or a negative count
// is refused and leaves the accumulator untouched.
func TestAddRepeatedValidates(t *testing.T) {
	s := NewSeriesStatsAt(2, 3)
	if err := s.AddRepeated([]float64{1}, 4); err == nil {
		t.Fatal("short series accepted")
	}
	if err := s.AddRepeated([]float64{1, 2}, -1); err == nil {
		t.Fatal("negative count accepted")
	}
	if err := s.AddRepeated([]float64{1, 2}, 0); err != nil {
		t.Fatal(err)
	}
	if snap := s.Snapshot(); snap.Next != 3 || len(snap.Nodes) != 0 {
		t.Fatalf("refused or empty folds moved the accumulator: %+v", snap)
	}
}
