// Package geo provides the planar geometry used by the trace pipeline:
// points in meters, bounding rectangles, cell-tower fields with minimum
// separation, and Voronoi (nearest-tower) quantisation of positions into
// cells, backed by a uniform-grid spatial index. It substitutes for the
// paper's antennasearch.com tower set (Section VII-B.1): only the tower
// geometry matters — it defines the cell partition the eavesdropper
// observes at.
package geo

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Point is a planar position in meters.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between two points.
func Dist(a, b Point) float64 {
	dx, dy := a.X-b.X, a.Y-b.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Lerp linearly interpolates between a and b with parameter t ∈ [0,1].
func Lerp(a, b Point, t float64) Point {
	return Point{X: a.X + (b.X-a.X)*t, Y: a.Y + (b.Y-a.Y)*t}
}

// Rect is an axis-aligned bounding rectangle.
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// Valid reports whether the rectangle has positive area.
func (r Rect) Valid() bool { return r.MaxX > r.MinX && r.MaxY > r.MinY }

// Width and Height return the side lengths.
func (r Rect) Width() float64  { return r.MaxX - r.MinX }
func (r Rect) Height() float64 { return r.MaxY - r.MinY }

// Contains reports whether p lies inside the rectangle (inclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.MinX && p.X <= r.MaxX && p.Y >= r.MinY && p.Y <= r.MaxY
}

// Clamp returns p moved to the nearest point inside the rectangle.
func (r Rect) Clamp(p Point) Point {
	return Point{
		X: math.Min(math.Max(p.X, r.MinX), r.MaxX),
		Y: math.Min(math.Max(p.Y, r.MinY), r.MaxY),
	}
}

// RandomPoint draws a uniform point inside the rectangle.
func (r Rect) RandomPoint(rng *rand.Rand) Point {
	return Point{
		X: r.MinX + rng.Float64()*r.Width(),
		Y: r.MinY + rng.Float64()*r.Height(),
	}
}

// DedupTowers drops towers closer than minSep meters to an earlier-listed
// tower, reproducing the paper's "ignoring towers within 100 meters of
// others" preprocessing. Order is preserved.
func DedupTowers(towers []Point, minSep float64) []Point {
	var kept []Point
	for _, t := range towers {
		ok := true
		for _, k := range kept {
			if Dist(t, k) < minSep {
				ok = false
				break
			}
		}
		if ok {
			kept = append(kept, t)
		}
	}
	return kept
}

// TowerFieldConfig parameterises the synthetic tower deployment: a
// clustered (urban-core-plus-suburb) layout rather than uniform noise, so
// Voronoi cell sizes are heterogeneous like a real deployment.
type TowerFieldConfig struct {
	// Bounds is the deployment region.
	Bounds Rect
	// Clusters is the number of dense urban clusters.
	Clusters int
	// TowersPerCluster is drawn around each cluster centre.
	TowersPerCluster int
	// ClusterSpread is the cluster's Gaussian σ in meters.
	ClusterSpread float64
	// BackgroundTowers are placed uniformly across the region.
	BackgroundTowers int
	// MinSeparation applies DedupTowers (the paper uses 100 m).
	MinSeparation float64
}

// GenerateTowers builds a synthetic clustered tower field.
func GenerateTowers(rng *rand.Rand, cfg TowerFieldConfig) ([]Point, error) {
	if !cfg.Bounds.Valid() {
		return nil, errors.New("geo: invalid bounds")
	}
	if cfg.Clusters < 0 || cfg.TowersPerCluster < 0 || cfg.BackgroundTowers < 0 {
		return nil, errors.New("geo: negative tower counts")
	}
	var towers []Point
	for c := 0; c < cfg.Clusters; c++ {
		centre := cfg.Bounds.RandomPoint(rng)
		for k := 0; k < cfg.TowersPerCluster; k++ {
			p := Point{
				X: centre.X + rng.NormFloat64()*cfg.ClusterSpread,
				Y: centre.Y + rng.NormFloat64()*cfg.ClusterSpread,
			}
			towers = append(towers, cfg.Bounds.Clamp(p))
		}
	}
	for k := 0; k < cfg.BackgroundTowers; k++ {
		towers = append(towers, cfg.Bounds.RandomPoint(rng))
	}
	if cfg.MinSeparation > 0 {
		towers = DedupTowers(towers, cfg.MinSeparation)
	}
	if len(towers) == 0 {
		return nil, errors.New("geo: configuration produced no towers")
	}
	return towers, nil
}

// Quantizer maps positions to the index of the nearest tower (a Voronoi
// cell id) using a uniform-grid spatial index with expanding-ring search.
type Quantizer struct {
	towers   []Point
	bounds   Rect
	cellSize float64
	cols     int
	rows     int
	buckets  [][]int32
}

// NewQuantizer indexes the towers. The towers slice is copied.
func NewQuantizer(towers []Point) (*Quantizer, error) {
	if len(towers) == 0 {
		return nil, errors.New("geo: quantizer needs at least one tower")
	}
	b := Rect{MinX: math.Inf(1), MinY: math.Inf(1), MaxX: math.Inf(-1), MaxY: math.Inf(-1)}
	for _, t := range towers {
		b.MinX = math.Min(b.MinX, t.X)
		b.MinY = math.Min(b.MinY, t.Y)
		b.MaxX = math.Max(b.MaxX, t.X)
		b.MaxY = math.Max(b.MaxY, t.Y)
	}
	// Pad degenerate extents so the grid always has area.
	if b.MaxX == b.MinX {
		b.MaxX += 1
	}
	if b.MaxY == b.MinY {
		b.MaxY += 1
	}
	// Aim for O(1) towers per bucket. A needle-thin field would ask for
	// far more buckets than towers, or for a grid size that overflows
	// int: coarsen its cells to about 2n+4 buckets (Nearest is exact at
	// any cell size). Non-finite towers fail the same bound.
	w, h, n := b.Width(), b.Height(), float64(len(towers))
	buckets := func(cell float64) float64 { return (w/cell + 2) * (h/cell + 2) }
	cell := math.Sqrt(w * h / n)
	if !(buckets(cell) <= 4*n+16) {
		cell = 2 * (w + h) / n
	}
	if !(buckets(cell) <= 4*n+16) {
		return nil, errors.New("geo: quantizer needs finite towers with an extent the grid can index")
	}
	cols := int(math.Ceil(w/cell)) + 1
	rows := int(math.Ceil(h/cell)) + 1
	q := &Quantizer{
		towers:   append([]Point(nil), towers...),
		bounds:   b,
		cellSize: cell,
		cols:     cols,
		rows:     rows,
		buckets:  make([][]int32, cols*rows),
	}
	for i, t := range q.towers {
		idx := q.bucketIndex(t)
		q.buckets[idx] = append(q.buckets[idx], int32(i))
	}
	return q, nil
}

// NumCells returns the number of Voronoi cells (= towers).
func (q *Quantizer) NumCells() int { return len(q.towers) }

// Tower returns the tower location that defines cell id.
func (q *Quantizer) Tower(id int) Point { return q.towers[id] }

// Towers returns a copy of the tower field.
func (q *Quantizer) Towers() []Point { return append([]Point(nil), q.towers...) }

func (q *Quantizer) bucketCoords(p Point) (col, row int) {
	col = int((p.X - q.bounds.MinX) / q.cellSize)
	row = int((p.Y - q.bounds.MinY) / q.cellSize)
	if col < 0 {
		col = 0
	}
	if col >= q.cols {
		col = q.cols - 1
	}
	if row < 0 {
		row = 0
	}
	if row >= q.rows {
		row = q.rows - 1
	}
	return col, row
}

func (q *Quantizer) bucketIndex(p Point) int {
	col, row := q.bucketCoords(p)
	return row*q.cols + col
}

// Nearest returns the cell id (tower index) whose tower is closest to p,
// breaking exact ties toward the lower index. Points outside the tower
// bounding box are handled correctly (the ring search expands until the
// nearest tower is provably found).
func (q *Quantizer) Nearest(p Point) int {
	bestIdx, bestD := -1, math.Inf(1)
	col, row := q.bucketCoords(p)
	scan := func(c, r int) {
		if c < 0 || c >= q.cols || r < 0 || r >= q.rows {
			return
		}
		for _, ti := range q.buckets[r*q.cols+c] {
			d := Dist(p, q.towers[ti])
			if d < bestD || (d == bestD && int(ti) < bestIdx) {
				bestIdx, bestD = int(ti), d
			}
		}
	}
	for ring := 0; ; ring++ {
		if ring == 0 {
			scan(col, row)
		} else {
			for c := col - ring; c <= col+ring; c++ {
				scan(c, row-ring)
				scan(c, row+ring)
			}
			for r := row - ring + 1; r <= row+ring-1; r++ {
				scan(col-ring, r)
				scan(col+ring, r)
			}
		}
		// Once a candidate exists, we can stop when the next ring cannot
		// contain anything closer: its nearest edge is ring·cellSize away
		// from the query's bucket (minus the in-bucket offset, ≤ cellSize).
		if bestIdx >= 0 {
			safe := float64(ring) * q.cellSize
			if bestD <= safe {
				return bestIdx
			}
		}
		// Bail out when the search has covered the whole grid.
		if ring > q.cols+q.rows {
			return bestIdx
		}
	}
}

// QuantizeAll maps a sequence of positions to cell ids.
func (q *Quantizer) QuantizeAll(ps []Point) []int {
	out := make([]int, len(ps))
	for i, p := range ps {
		out[i] = q.Nearest(p)
	}
	return out
}

// String describes the index.
func (q *Quantizer) String() string {
	return fmt.Sprintf("geo.Quantizer{towers: %d, grid: %dx%d}", len(q.towers), q.cols, q.rows)
}
