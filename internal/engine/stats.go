package engine

import (
	"fmt"
	"math"
)

// The accumulators in this file are POSITION-AWARE, EXACTLY-MERGEABLE
// reducers: every sample carries an implicit global run index, and the
// reduction is a fixed binary tree over those indices (the dyadic
// segment-tree of the run range), not a left-to-right fold. Two
// consequences:
//
//   - Determinism for any worker count is kept: samples still arrive in
//     strict run order on one goroutine (the engine's Accumulate
//     contract), so the tree is built the same way every time.
//
//   - Sharding is EXACT: an experiment split into contiguous run ranges
//     [0,k) and [k,n) — in one process or across processes/hosts — and
//     merged with Merge reproduces the single-process aggregate
//     bit-for-bit, because every internal node of the dyadic tree is a
//     pure function of the leaf samples it spans, regardless of which
//     process computed it. This is the foundation of the Job/Report
//     shard workflow (internal/report, cmd/experiments -shard/-merge).
//
// Internally an accumulator holds a "spine": the canonical decomposition
// of its covered run range into maximal aligned dyadic intervals
// [m·2^j, (m+1)·2^j), at most ~2·log2(n) of them, left to right. Add
// appends a one-run leaf and greedily combines sibling intervals;
// AddRepeated(x, n) appends n runs of one series x as the aligned dyadic
// nodes they fill, each a pure function of x and its width, and is
// bit-identical to n calls of Add(x) (the trace kind's stream-free jobs
// fold a whole chunk of identical runs with it); Merge appends another
// accumulator's spine (which must start exactly where this one ends)
// and combines the same way. Mean/StdErr fold the spine
// left-to-right. Interval statistics combine with Chan et al.'s parallel
// Welford update, so the numerical quality matches the previous
// streaming-Welford implementation (pairwise reduction is, if anything,
// slightly more accurate).

// combine folds the (n2, mean2, m2b) aggregate into (n1, mean1, m2a)
// in place, element-wise over the series slots — Chan et al.'s parallel
// Welford combine. Series of length 1 serve the scalar accumulators.
func combine(n1, n2 float64, mean1, m2a, mean2, m2b []float64) {
	inv := 1 / (n1 + n2)
	for t := range mean1 {
		d := mean2[t] - mean1[t]
		mean1[t] += d * n2 * inv
		m2a[t] += m2b[t] + d*d*n1*n2*inv
	}
}

// siblings reports whether two adjacent dyadic intervals of size n
// starting at aStart and aStart+n form the left/right children of one
// node of the global dyadic tree (i.e. may be combined).
func siblings(aStart, aN, bN int64) bool {
	return aN == bN && aStart%(2*aN) == 0
}

// seriesNode is one dyadic interval's aggregate: n series covering the
// runs [start, start+n).
type seriesNode struct {
	start, n int64
	mean, m2 []float64
}

// SeriesStats accumulates per-slot mean and variance over fixed-length
// metric series, one Add per Monte-Carlo run, as a position-aware dyadic
// reduction (see the package comment above). Feeding it from
// Config.Accumulate keeps results bitwise independent of worker count;
// Merge of contiguous shards is bitwise identical to one whole run.
type SeriesStats struct {
	t     int
	next  int64 // global run index of the next Add
	spine []seriesNode
	free  [][]float64 // recycled node buffers
}

// NewSeriesStats prepares an accumulator for series of length T whose
// first sample is global run 0.
func NewSeriesStats(T int) *SeriesStats { return NewSeriesStatsAt(T, 0) }

// NewSeriesStatsAt prepares an accumulator for series of length T whose
// first sample is the global run index start — the constructor shard
// harnesses use so that partials merge exactly (Merge requires the next
// accumulator to start where the previous one ends).
func NewSeriesStatsAt(T int, start int) *SeriesStats {
	return &SeriesStats{t: T, next: int64(start)}
}

func (s *SeriesStats) buf() []float64 {
	if n := len(s.free); n > 0 {
		b := s.free[n-1]
		s.free = s.free[:n-1]
		return b
	}
	return make([]float64, s.t)
}

// Add folds one run's per-slot series into the accumulator. Samples are
// assigned consecutive global run indices in call order.
func (s *SeriesStats) Add(x []float64) error {
	if len(x) != s.t {
		return fmt.Errorf("engine: series length %d, want %d", len(x), s.t)
	}
	leaf := seriesNode{start: s.next, n: 1, mean: s.buf(), m2: s.buf()}
	copy(leaf.mean, x)
	for i := range leaf.m2 {
		leaf.m2[i] = 0
	}
	s.spine = append(s.spine, leaf)
	s.next++
	s.collapse()
	return nil
}

// AddRepeated folds n runs that all carry the series x: bit-identical
// to n calls of Add(x), in O(T·log² n) — O(T·log n) for an aligned
// range — instead of O(T·n). A dyadic node over 2^j identical leaves is
// combine of two copies of its 2^(j-1) child (combine is a pure
// function of its inputs), so each maximal aligned dyadic interval of
// [next, next+n) is built from Add's leaf by j doublings and appended,
// then collapsed the way Add collapses its leaf.
func (s *SeriesStats) AddRepeated(x []float64, n int) error {
	if len(x) != s.t {
		return fmt.Errorf("engine: series length %d, want %d", len(x), s.t)
	}
	if n < 0 {
		return fmt.Errorf("engine: %d repeated series", n)
	}
	end := s.next + int64(n)
	for s.next < end {
		size := int64(1)
		for s.next%(2*size) == 0 && s.next+2*size <= end {
			size *= 2
		}
		node := seriesNode{start: s.next, n: size, mean: s.buf(), m2: s.buf()}
		copy(node.mean, x)
		clear(node.m2)
		// combine works slot by slot, reading both sides of a slot
		// before writing it, so combining a node with itself equals
		// combining it with a copy.
		for half := int64(1); half < size; half *= 2 {
			combine(float64(half), float64(half), node.mean, node.m2, node.mean, node.m2)
		}
		s.spine = append(s.spine, node)
		s.next += size
		s.collapse()
	}
	return nil
}

// collapse greedily combines trailing sibling intervals, restoring the
// maximal-dyadic-decomposition invariant.
func (s *SeriesStats) collapse() {
	for len(s.spine) >= 2 {
		a := &s.spine[len(s.spine)-2]
		b := &s.spine[len(s.spine)-1]
		if !siblings(a.start, a.n, b.n) {
			break
		}
		combine(float64(a.n), float64(b.n), a.mean, a.m2, b.mean, b.m2)
		a.n += b.n
		s.free = append(s.free, b.mean, b.m2)
		s.spine = s.spine[:len(s.spine)-1]
	}
}

// Merge appends another accumulator's samples after s's own. o must
// cover the run range starting exactly at s's end (s empty adopts o's
// position), which makes the merged aggregate BIT-IDENTICAL to a single
// accumulator fed both ranges in order — the cross-shard reduction for
// experiments split across workers, processes or hosts. o is not
// modified.
func (s *SeriesStats) Merge(o *SeriesStats) error {
	nodes := make([]StatNode, len(o.spine))
	for i, node := range o.spine {
		nodes[i] = StatNode{Start: node.start, N: node.n, Mean: node.mean, M2: node.m2}
	}
	return s.MergeSnapshot(SeriesSnapshot{T: o.t, Next: o.next, Nodes: nodes})
}

// MergeSnapshot is Merge of SeriesFromSnapshot(snap), with the same
// validation and the same bits, but each node is copied once, straight
// into s. snap is not modified.
func (s *SeriesStats) MergeSnapshot(snap SeriesSnapshot) error {
	if err := checkSnapshot(snap); err != nil {
		return err
	}
	if snap.T != s.t {
		return fmt.Errorf("engine: merging series stats of length %d into %d", snap.T, s.t)
	}
	if len(snap.Nodes) == 0 {
		return nil
	}
	if len(s.spine) == 0 {
		s.next = snap.Nodes[0].Start
	}
	if snap.Nodes[0].Start != s.next {
		return fmt.Errorf("engine: merging series stats covering runs [%d,%d) into stats ending at run %d",
			snap.Nodes[0].Start, snap.Next, s.next)
	}
	for _, node := range snap.Nodes {
		cl := seriesNode{start: node.Start, n: node.N, mean: s.buf(), m2: s.buf()}
		copy(cl.mean, node.Mean)
		copy(cl.m2, node.M2)
		s.spine = append(s.spine, cl)
		s.collapse()
	}
	s.next = snap.Next
	return nil
}

// N returns the number of series accumulated.
func (s *SeriesStats) N() int {
	var n int64
	for _, node := range s.spine {
		n += node.n
	}
	return int(n)
}

// fold reduces the spine left-to-right into one aggregate. The fold
// order is part of the determinism contract: the same spine always
// yields the same bits.
func (s *SeriesStats) fold() (n int64, mean, m2 []float64) {
	mean = make([]float64, s.t)
	m2 = make([]float64, s.t)
	if len(s.spine) == 0 {
		return 0, mean, m2
	}
	copy(mean, s.spine[0].mean)
	copy(m2, s.spine[0].m2)
	n = s.spine[0].n
	for _, node := range s.spine[1:] {
		combine(float64(n), float64(node.n), mean, m2, node.mean, node.m2)
		n += node.n
	}
	return n, mean, m2
}

// Mean returns the per-slot sample mean (a copy).
func (s *SeriesStats) Mean() []float64 {
	_, mean, _ := s.fold()
	return mean
}

// StdErr returns the per-slot standard error of the mean (zero when fewer
// than two series were accumulated).
func (s *SeriesStats) StdErr() []float64 {
	n, _, m2 := s.fold()
	out := make([]float64, s.t)
	if n < 2 {
		return out
	}
	nf := float64(n)
	for t, v := range m2 {
		if v < 0 {
			v = 0
		}
		out[t] = math.Sqrt(v / (nf - 1) / nf)
	}
	return out
}

// StatNode is the serialized form of one dyadic interval aggregate.
type StatNode struct {
	// Start and N delimit the covered global run range [Start, Start+N).
	Start int64 `json:"start"`
	N     int64 `json:"n"`
	// Mean and M2 are the interval's per-slot mean and sum of squared
	// deviations (Welford state).
	Mean []float64 `json:"mean"`
	M2   []float64 `json:"m2"`
}

// SeriesSnapshot is the JSON-serializable state of a SeriesStats — the
// shard partial shipped between processes by internal/report. Two
// snapshots of accumulators fed the same samples are deeply equal, so
// snapshots double as the bit-for-bit comparison form.
type SeriesSnapshot struct {
	T     int        `json:"t"`
	Next  int64      `json:"next"`
	Nodes []StatNode `json:"nodes,omitempty"`
}

// blocks carves n capped length-T blocks out of one allocation (nil
// blocks when T is 0), so that copying a spine costs two allocations
// instead of two per node.
func blocks(n, T int) [][]float64 {
	out := make([][]float64, n)
	if T == 0 {
		return out
	}
	backing := make([]float64, n*T)
	for i := range out {
		out[i] = backing[i*T : (i+1)*T : (i+1)*T]
	}
	return out
}

// Snapshot captures the accumulator state (a deep copy).
func (s *SeriesStats) Snapshot() SeriesSnapshot {
	snap := SeriesSnapshot{T: s.t, Next: s.next}
	if len(s.spine) == 0 {
		return snap
	}
	bufs := blocks(2*len(s.spine), s.t)
	snap.Nodes = make([]StatNode, len(s.spine))
	for i, node := range s.spine {
		mean, m2 := bufs[2*i], bufs[2*i+1]
		copy(mean, node.mean)
		copy(m2, node.m2)
		snap.Nodes[i] = StatNode{Start: node.start, N: node.n, Mean: mean, M2: m2}
	}
	return snap
}

// SeriesFromSnapshot reconstructs an accumulator from its snapshot,
// validating the invariants a hand-edited or corrupted file could break.
func SeriesFromSnapshot(snap SeriesSnapshot) (*SeriesStats, error) {
	if err := checkSnapshot(snap); err != nil {
		return nil, err
	}
	s := &SeriesStats{t: snap.T, next: snap.Next}
	if len(snap.Nodes) == 0 {
		return s, nil
	}
	bufs := blocks(2*len(snap.Nodes), snap.T)
	s.spine = make([]seriesNode, len(snap.Nodes))
	for i, node := range snap.Nodes {
		mean, m2 := bufs[2*i], bufs[2*i+1]
		copy(mean, node.Mean)
		copy(m2, node.M2)
		s.spine[i] = seriesNode{start: node.Start, n: node.N, mean: mean, m2: m2}
	}
	return s, nil
}

// checkSnapshot validates a series snapshot: a non-negative length,
// nodes of that length tiling a contiguous run range that ends at Next.
func checkSnapshot(snap SeriesSnapshot) error {
	if snap.T < 0 {
		return fmt.Errorf("engine: snapshot has negative length %d", snap.T)
	}
	pos := int64(-1)
	for i, node := range snap.Nodes {
		if node.N < 1 || node.Start < 0 {
			return fmt.Errorf("engine: snapshot node %d covers invalid range [%d,%d)", i, node.Start, node.Start+node.N)
		}
		if len(node.Mean) != snap.T || len(node.M2) != snap.T {
			return fmt.Errorf("engine: snapshot node %d has series length %d/%d, want %d", i, len(node.Mean), len(node.M2), snap.T)
		}
		if pos >= 0 && node.Start != pos {
			return fmt.Errorf("engine: snapshot node %d starts at %d, want %d (contiguous)", i, node.Start, pos)
		}
		pos = node.Start + node.N
	}
	if pos >= 0 && pos != snap.Next {
		return fmt.Errorf("engine: snapshot ends at run %d but declares next run %d", pos, snap.Next)
	}
	return nil
}

// scalarNode is one dyadic interval's scalar aggregate.
type scalarNode struct {
	start, n int64
	mean, m2 float64
}

// ScalarStats is the scalar counterpart of SeriesStats: position-aware,
// dyadic, exactly mergeable. The zero value accumulates from global run
// index 0.
//
// Unlike SeriesStats it travels by value (the zero value is ready to
// use), so its mutations never write into spine elements in place —
// collapse rebuilds the tail into a fresh backing array — keeping an
// accumulator readable after being copied. Still, treat a copy as a
// snapshot: keep Add-ing to ONE of the copies only (two diverging
// copies can clobber each other's appended elements, the usual slice
// aliasing rule).
type ScalarStats struct {
	next  int64
	spine []scalarNode
}

// NewScalarStatsAt prepares a scalar accumulator whose first sample is
// the global run index start.
func NewScalarStatsAt(start int) ScalarStats {
	return ScalarStats{next: int64(start)}
}

// Add folds one run's scalar metric into the accumulator.
func (s *ScalarStats) Add(v float64) {
	s.spine = append(s.spine, scalarNode{start: s.next, n: 1, mean: v})
	s.next++
	s.collapse()
}

// collapse greedily combines trailing sibling intervals. It never
// mutates an existing spine element in place: the combined node replaces
// the siblings through a capacity-capped append, which reallocates —
// copies of the accumulator made before this call stay intact.
func (s *ScalarStats) collapse() {
	for n := len(s.spine); n >= 2; n = len(s.spine) {
		a, b := s.spine[n-2], s.spine[n-1]
		if !siblings(a.start, a.n, b.n) {
			break
		}
		combineScalar(&a, b)
		s.spine = append(s.spine[:n-2:n-2], a)
	}
}

func combineScalar(a *scalarNode, b scalarNode) {
	n1, n2 := float64(a.n), float64(b.n)
	inv := 1 / (n1 + n2)
	d := b.mean - a.mean
	a.mean += d * n2 * inv
	a.m2 += b.m2 + d*d*n1*n2*inv
	a.n += b.n
}

// Merge appends another accumulator's samples after s's own. Like
// SeriesStats.Merge it requires o to start exactly at s's end (s empty
// adopts o's position) and is then bit-identical to one sequential
// accumulation. o is not modified.
func (s *ScalarStats) Merge(o ScalarStats) error {
	if len(o.spine) == 0 {
		return nil
	}
	if len(s.spine) == 0 {
		s.next = o.spine[0].start
	}
	if o.spine[0].start != s.next {
		return fmt.Errorf("engine: merging scalar stats covering runs [%d,%d) into stats ending at run %d",
			o.spine[0].start, o.next, s.next)
	}
	for _, node := range o.spine {
		s.spine = append(s.spine, node)
		s.collapse()
	}
	s.next = o.next
	return nil
}

// N returns the number of samples accumulated.
func (s *ScalarStats) N() int {
	var n int64
	for _, node := range s.spine {
		n += node.n
	}
	return int(n)
}

func (s *ScalarStats) fold() scalarNode {
	if len(s.spine) == 0 {
		return scalarNode{}
	}
	acc := s.spine[0]
	for _, node := range s.spine[1:] {
		combineScalar(&acc, node)
	}
	return acc
}

// Mean returns the sample mean (zero before any Add).
func (s *ScalarStats) Mean() float64 { return s.fold().mean }

// StdErr returns the standard error of the mean (zero when n < 2).
func (s *ScalarStats) StdErr() float64 {
	acc := s.fold()
	if acc.n < 2 {
		return 0
	}
	m2 := acc.m2
	if m2 < 0 {
		m2 = 0
	}
	n := float64(acc.n)
	return math.Sqrt(m2 / (n - 1) / n)
}

// ScalarStatNode is the serialized form of one scalar interval aggregate.
type ScalarStatNode struct {
	Start int64   `json:"start"`
	N     int64   `json:"n"`
	Mean  float64 `json:"mean"`
	M2    float64 `json:"m2"`
}

// ScalarSnapshot is the JSON-serializable state of a ScalarStats.
type ScalarSnapshot struct {
	Next  int64            `json:"next"`
	Nodes []ScalarStatNode `json:"nodes,omitempty"`
}

// Snapshot captures the accumulator state.
func (s *ScalarStats) Snapshot() ScalarSnapshot {
	snap := ScalarSnapshot{Next: s.next}
	for _, node := range s.spine {
		snap.Nodes = append(snap.Nodes, ScalarStatNode{Start: node.start, N: node.n, Mean: node.mean, M2: node.m2})
	}
	return snap
}

// ScalarFromSnapshot reconstructs a scalar accumulator from its snapshot.
func ScalarFromSnapshot(snap ScalarSnapshot) (ScalarStats, error) {
	s := ScalarStats{next: snap.Next}
	pos := int64(-1)
	for i, node := range snap.Nodes {
		if node.N < 1 || node.Start < 0 {
			return ScalarStats{}, fmt.Errorf("engine: snapshot node %d covers invalid range [%d,%d)", i, node.Start, node.Start+node.N)
		}
		if pos >= 0 && node.Start != pos {
			return ScalarStats{}, fmt.Errorf("engine: snapshot node %d starts at %d, want %d (contiguous)", i, node.Start, pos)
		}
		pos = node.Start + node.N
		s.spine = append(s.spine, scalarNode{start: node.Start, n: node.N, mean: node.Mean, m2: node.M2})
	}
	if pos >= 0 && pos != snap.Next {
		return ScalarStats{}, fmt.Errorf("engine: snapshot ends at run %d but declares next run %d", pos, snap.Next)
	}
	return s, nil
}
