package geo

import (
	"math"
	"testing"
	"testing/quick"

	"chaffmec/internal/rng"
)

func TestDistAndLerp(t *testing.T) {
	a, b := Point{0, 0}, Point{3, 4}
	if d := Dist(a, b); d != 5 {
		t.Fatalf("Dist = %v, want 5", d)
	}
	mid := Lerp(a, b, 0.5)
	if mid.X != 1.5 || mid.Y != 2 {
		t.Fatalf("Lerp = %v", mid)
	}
	if p := Lerp(a, b, 0); p != a {
		t.Fatalf("Lerp(0) = %v", p)
	}
	if p := Lerp(a, b, 1); p != b {
		t.Fatalf("Lerp(1) = %v", p)
	}
}

func TestRect(t *testing.T) {
	r := Rect{0, 0, 10, 5}
	if !r.Valid() || r.Width() != 10 || r.Height() != 5 {
		t.Fatal("rect basics wrong")
	}
	if !r.Contains(Point{5, 2}) || r.Contains(Point{11, 2}) {
		t.Fatal("Contains wrong")
	}
	if p := r.Clamp(Point{-3, 7}); p.X != 0 || p.Y != 5 {
		t.Fatalf("Clamp = %v", p)
	}
	if (Rect{0, 0, 0, 5}).Valid() {
		t.Fatal("degenerate rect valid")
	}
	rng := rng.New(1)
	for i := 0; i < 100; i++ {
		if p := r.RandomPoint(rng); !r.Contains(p) {
			t.Fatalf("RandomPoint %v outside", p)
		}
	}
}

func TestDedupTowers(t *testing.T) {
	towers := []Point{{0, 0}, {50, 0}, {200, 0}, {210, 0}}
	kept := DedupTowers(towers, 100)
	if len(kept) != 2 || kept[0] != (Point{0, 0}) || kept[1] != (Point{200, 0}) {
		t.Fatalf("kept = %v", kept)
	}
}

func TestGenerateTowers(t *testing.T) {
	rng := rng.New(9)
	cfg := TowerFieldConfig{
		Bounds:           Rect{0, 0, 45000, 40000},
		Clusters:         10,
		TowersPerCluster: 80,
		ClusterSpread:    1500,
		BackgroundTowers: 500,
		MinSeparation:    100,
	}
	towers, err := GenerateTowers(rng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Should land near the paper's 959 cells (clusters lose some to dedup).
	if len(towers) < 600 || len(towers) > 1300 {
		t.Fatalf("tower count %d outside the expected band", len(towers))
	}
	for i, a := range towers {
		if !cfg.Bounds.Contains(a) {
			t.Fatalf("tower %d outside bounds", i)
		}
		for _, b := range towers[:i] {
			if Dist(a, b) < 100 {
				t.Fatalf("towers %v and %v violate the 100 m separation", a, b)
			}
		}
	}
	if _, err := GenerateTowers(rng, TowerFieldConfig{}); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestQuantizerNearestBruteForce(t *testing.T) {
	rng := rng.New(31)
	bounds := Rect{0, 0, 10000, 8000}
	towers := make([]Point, 300)
	for i := range towers {
		towers[i] = bounds.RandomPoint(rng)
	}
	q, err := NewQuantizer(towers)
	if err != nil {
		t.Fatal(err)
	}
	if q.NumCells() != 300 {
		t.Fatalf("NumCells = %d", q.NumCells())
	}
	brute := func(p Point) int {
		best, bestD := -1, math.Inf(1)
		for i, tw := range towers {
			if d := Dist(p, tw); d < bestD {
				best, bestD = i, d
			}
		}
		return best
	}
	// Random queries, including points outside the tower bounding box.
	outer := Rect{-2000, -2000, 12000, 10000}
	for i := 0; i < 2000; i++ {
		p := outer.RandomPoint(rng)
		got, want := q.Nearest(p), brute(p)
		if got != want && Dist(p, towers[got]) != Dist(p, towers[want]) {
			t.Fatalf("query %v: grid index %d (d=%v), brute force %d (d=%v)",
				p, got, Dist(p, towers[got]), want, Dist(p, towers[want]))
		}
	}
}

func TestQuantizerProperties(t *testing.T) {
	towers := []Point{{0, 0}, {100, 0}, {0, 100}}
	q, err := NewQuantizer(towers)
	if err != nil {
		t.Fatal(err)
	}
	f := func(xr, yr uint16) bool {
		p := Point{X: float64(xr) - 1000, Y: float64(yr) - 1000}
		id := q.Nearest(p)
		d := Dist(p, q.Tower(id))
		for i := range towers {
			if Dist(p, towers[i]) < d {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	if _, err := NewQuantizer(nil); err == nil {
		t.Fatal("empty tower set accepted")
	}
}

func TestQuantizeAll(t *testing.T) {
	q, _ := NewQuantizer([]Point{{0, 0}, {10, 0}})
	ids := q.QuantizeAll([]Point{{1, 0}, {9, 0}, {4, 0}})
	want := []int{0, 1, 0}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("QuantizeAll = %v, want %v", ids, want)
		}
	}
	ts := q.Towers()
	ts[0] = Point{99, 99}
	if q.Tower(0) == (Point{99, 99}) {
		t.Fatal("Towers() aliases internal state")
	}
}

// TestQuantizerDegenerateFields: a needle-thin tower field is indexed
// on a coarsened grid and still answers exact nearest towers, and a
// non-finite tower is refused — neither may panic or size a grid from
// an overflowed extent.
func TestQuantizerDegenerateFields(t *testing.T) {
	needle := []Point{{0, 0}, {1e20, 1e-20}, {5e19, 0}}
	q, err := NewQuantizer(needle)
	if err != nil {
		t.Fatalf("needle field refused: %v", err)
	}
	for _, c := range []struct {
		p    Point
		want int
	}{{Point{1, 0}, 0}, {Point{9e19, 0}, 1}, {Point{4e19, 1}, 2}} {
		if got := q.Nearest(c.p); got != c.want {
			t.Fatalf("Nearest(%v) = %d, want %d", c.p, got, c.want)
		}
	}
	for _, bad := range []Point{{math.NaN(), 0}, {math.Inf(1), 0}, {0, math.Inf(-1)}} {
		if _, err := NewQuantizer([]Point{{0, 0}, bad}); err == nil {
			t.Fatalf("tower %v accepted", bad)
		}
	}
}
