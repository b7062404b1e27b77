// Package trace implements the mobility-trace pipeline of Section VII-B:
// raw position reports with irregular intervals are filtered for inactive
// nodes (no update for 5 minutes), regularised onto a fixed slot grid by
// linear interpolation, quantised into Voronoi cells, and fitted into an
// empirical Markov chain (transition matrix + empirical steady state)
// shared by all nodes.
package trace

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"chaffmec/internal/geo"
	"chaffmec/internal/markov"
)

// Record is one raw position report.
type Record struct {
	// Node identifies the reporting node (taxi).
	Node string
	// Minute is the report time in minutes from the observation start.
	Minute float64
	// Pos is the reported position.
	Pos geo.Point
}

// Set groups raw records by node, each node's records sorted by time.
type Set struct {
	nodes   []string
	records map[string][]Record
}

// NewSet groups and time-sorts raw records.
func NewSet(records []Record) *Set {
	byNode := make(map[string][]Record)
	for _, r := range records {
		byNode[r.Node] = append(byNode[r.Node], r)
	}
	nodes := make([]string, 0, len(byNode))
	for n := range byNode {
		nodes = append(nodes, n)
		sort.Slice(byNode[n], func(i, j int) bool { return byNode[n][i].Minute < byNode[n][j].Minute })
	}
	sort.Strings(nodes)
	return &Set{nodes: nodes, records: byNode}
}

// Nodes returns the node ids in deterministic (sorted) order.
func (s *Set) Nodes() []string { return append([]string(nil), s.nodes...) }

// Records returns the time-sorted records of one node.
func (s *Set) Records(node string) []Record {
	return append([]Record(nil), s.records[node]...)
}

// Len returns the number of nodes.
func (s *Set) Len() int { return len(s.nodes) }

// RegularizeOptions controls the resampling of Section VII-B.1.
type RegularizeOptions struct {
	// StartMinute and Slots define the output grid: slot t corresponds to
	// time StartMinute + t·IntervalMin.
	StartMinute float64
	Slots       int
	// IntervalMin is the slot length in minutes (the paper uses 1).
	IntervalMin float64
	// MaxGapMin marks a node inactive when two consecutive reports (or
	// the window edges) are further apart (the paper uses 5).
	MaxGapMin float64
}

func (o RegularizeOptions) validate() error {
	switch {
	case o.Slots < 1:
		return fmt.Errorf("trace: Slots %d must be >= 1", o.Slots)
	case o.IntervalMin <= 0:
		return fmt.Errorf("trace: IntervalMin %v must be positive", o.IntervalMin)
	case o.MaxGapMin <= 0:
		return fmt.Errorf("trace: MaxGapMin %v must be positive", o.MaxGapMin)
	}
	return nil
}

// Regularize resamples one node's reports onto the slot grid with linear
// interpolation. ok is false when the node is inactive in the window:
// it has no report within MaxGapMin of the window start or end, or two
// consecutive reports straddling the window are more than MaxGapMin apart.
func Regularize(records []Record, opts RegularizeOptions) (points []geo.Point, ok bool, err error) {
	return regularizeInto(records, opts, nil)
}

// regularizeInto is Regularize with a caller-owned output buffer (grown
// as needed, reused when large enough) — the streaming pipeline's way of
// resampling a whole fleet through one allocation.
func regularizeInto(records []Record, opts RegularizeOptions, buf []geo.Point) (points []geo.Point, ok bool, err error) {
	if err := opts.validate(); err != nil {
		return nil, false, err
	}
	if len(records) == 0 {
		return nil, false, nil
	}
	end := opts.StartMinute + float64(opts.Slots-1)*opts.IntervalMin
	// Gap scan across the window, including the edges.
	prev := opts.StartMinute - opts.MaxGapMin // sentinel: edge allowance
	idxFirst := -1
	for i, r := range records {
		if r.Minute < opts.StartMinute-opts.MaxGapMin || r.Minute > end+opts.MaxGapMin {
			continue
		}
		if idxFirst < 0 {
			idxFirst = i
			if r.Minute-opts.StartMinute > opts.MaxGapMin {
				return nil, false, nil // silent at the window start
			}
		} else if r.Minute-prev > opts.MaxGapMin && prev < end {
			return nil, false, nil // mid-window silence
		}
		prev = r.Minute
	}
	if idxFirst < 0 || end-prev > opts.MaxGapMin {
		return nil, false, nil // no usable reports / silent at the end
	}

	if cap(buf) < opts.Slots {
		buf = make([]geo.Point, opts.Slots)
	}
	points = buf[:opts.Slots]
	j := 0
	for t := 0; t < opts.Slots; t++ {
		at := opts.StartMinute + float64(t)*opts.IntervalMin
		for j+1 < len(records) && records[j+1].Minute <= at {
			j++
		}
		switch {
		case records[j].Minute >= at:
			// Before (or exactly at) the first report: clamp.
			points[t] = records[j].Pos
		case j+1 >= len(records):
			// After the last report: clamp.
			points[t] = records[j].Pos
		default:
			a, b := records[j], records[j+1]
			span := b.Minute - a.Minute
			if span <= 0 {
				points[t] = b.Pos
			} else {
				points[t] = geo.Lerp(a.Pos, b.Pos, (at-a.Minute)/span)
			}
		}
	}
	return points, true, nil
}

// StreamRegularize resamples every node onto the slot grid and hands
// each ACTIVE node's points to fn in node order, reusing one internal
// point buffer across nodes: points is only valid during the call, so fn
// must consume (quantise, copy) it before returning. This is how the
// trace-lab build streams a whole fleet through the pipeline without
// materializing every raw track at once. A non-nil error from fn aborts
// the sweep.
func (s *Set) StreamRegularize(opts RegularizeOptions, fn func(node string, points []geo.Point) error) error {
	var buf []geo.Point
	for _, n := range s.nodes {
		pts, ok, err := regularizeInto(s.records[n], opts, buf)
		if err != nil {
			return fmt.Errorf("trace: node %s: %w", n, err)
		}
		if !ok {
			continue
		}
		buf = pts
		if err := fn(n, pts); err != nil {
			return err
		}
	}
	return nil
}

// RegularizeSet applies Regularize to every node and keeps the active
// ones, returning their resampled position sequences in node order.
func (s *Set) RegularizeSet(opts RegularizeOptions) (nodes []string, tracks [][]geo.Point, err error) {
	err = s.StreamRegularize(opts, func(n string, pts []geo.Point) error {
		nodes = append(nodes, n)
		tracks = append(tracks, append([]geo.Point(nil), pts...))
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return nodes, tracks, nil
}

// QuantizeTracks maps resampled position tracks into cell trajectories.
func QuantizeTracks(tracks [][]geo.Point, q *geo.Quantizer) []markov.Trajectory {
	out := make([]markov.Trajectory, len(tracks))
	for i, pts := range tracks {
		out[i] = markov.Trajectory(q.QuantizeAll(pts))
	}
	return out
}

// ChainEstimator fits the empirical mobility model of Section VII-B.1
// incrementally: trajectories are Add-ed one at a time (the streaming
// counterpart of EstimateChain, used by the trace-lab build to fold the
// fleet in without holding every trajectory's counts twice). Counts are
// sparse, as the fitted rows are: each row keeps its observed successors
// in ascending order with their counts, so a fit costs the transitions
// seen, not the square of the cell count.
type ChainEstimator struct {
	n      int
	rows   []countRow // from → observed successors and their counts
	visits []float64
	total  float64
	added  int
}

// countRow is one row's pooled transition counts: counts[k] is the
// number of observed moves to cols[k], cols strictly ascending.
type countRow struct {
	cols   []int
	counts []float64
}

// NewChainEstimator returns an empty estimator over numCells cells.
func NewChainEstimator(numCells int) (*ChainEstimator, error) {
	if numCells < 2 {
		return nil, fmt.Errorf("trace: numCells %d must be >= 2", numCells)
	}
	return &ChainEstimator{
		n:      numCells,
		rows:   make([]countRow, numCells),
		visits: make([]float64, numCells),
	}, nil
}

// Add folds one trajectory's visit and transition counts in.
func (e *ChainEstimator) Add(tr markov.Trajectory) error {
	if err := tr.Validate(e.n); err != nil {
		return err
	}
	for t, s := range tr {
		e.visits[s]++
		e.total++
		if t > 0 {
			r := &e.rows[tr[t-1]]
			k, seen := slices.BinarySearch(r.cols, s)
			if !seen {
				r.cols = slices.Insert(r.cols, k, s)
				r.counts = slices.Insert(r.counts, k, 0)
			}
			r.counts[k]++
		}
	}
	e.added++
	return nil
}

// Added returns the number of trajectories folded in so far.
func (e *ChainEstimator) Added() int { return e.added }

// Chain builds the estimated chain: pooled transition counts
// row-normalised, empirical visit frequencies as the stationary
// distribution, and a self-loop for states never left. Each row sums its
// nonzero counts in column order, the terms and order a dense sum over
// the row adds up, so the chain is bit-identical to normalising the
// dense count matrix.
func (e *ChainEstimator) Chain() (*markov.Chain, error) {
	if e.added == 0 {
		return nil, errors.New("trace: no trajectories to fit")
	}
	if e.total == 0 {
		return nil, errors.New("trace: empty trajectories")
	}
	nnz := 0
	for _, r := range e.rows {
		nnz += max(len(r.cols), 1)
	}
	cols := make([]int, 0, nnz)
	vals := make([]float64, 0, nnz)
	rows := make([]markov.SparseRow, e.n)
	for i, r := range e.rows {
		start := len(cols)
		if len(r.cols) == 0 {
			// Never-left state: self-loop.
			cols = append(cols, i)
			vals = append(vals, 1)
		} else {
			rowSum := 0.0
			for _, v := range r.counts {
				rowSum += v
			}
			cols = append(cols, r.cols...)
			for _, v := range r.counts {
				vals = append(vals, v/rowSum)
			}
		}
		rows[i] = markov.SparseRow{Cols: cols[start:], Vals: vals[start:]}
	}
	pi := make([]float64, e.n)
	for i, v := range e.visits {
		pi[i] = v / e.total
	}
	return markov.NewSparseWithStationary(rows, pi)
}

// EstimateChain fits the empirical mobility model of Section VII-B.1:
// transition counts pooled over all trajectories (they are modeled as
// independent samples of one chain), row-normalised, with the empirical
// visit frequencies as the stationary distribution. States never left get
// a self-loop. numCells fixes the state space (cells with no visits keep
// zero stationary mass). It is the one-shot wrapper over ChainEstimator.
func EstimateChain(trajs []markov.Trajectory, numCells int) (*markov.Chain, error) {
	if len(trajs) == 0 {
		return nil, errors.New("trace: no trajectories to fit")
	}
	est, err := NewChainEstimator(numCells)
	if err != nil {
		return nil, err
	}
	for _, tr := range trajs {
		if err := est.Add(tr); err != nil {
			return nil, err
		}
	}
	return est.Chain()
}
