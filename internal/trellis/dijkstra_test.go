package trellis

import (
	"container/heap"
	"fmt"
	"math"

	"chaffmec/internal/markov"
)

// pqItem is a priority-queue entry for Dijkstra over the trellis.
type pqItem struct {
	slot, cell int
	dist       float64
	index      int
}

type priorityQueue []*pqItem

func (pq priorityQueue) Len() int { return len(pq) }
func (pq priorityQueue) Less(i, j int) bool {
	if pq[i].dist != pq[j].dist {
		return pq[i].dist < pq[j].dist
	}
	// Deterministic order for equal distances.
	if pq[i].slot != pq[j].slot {
		return pq[i].slot < pq[j].slot
	}
	return pq[i].cell < pq[j].cell
}
func (pq priorityQueue) Swap(i, j int) {
	pq[i], pq[j] = pq[j], pq[i]
	pq[i].index, pq[j].index = i, j
}
func (pq *priorityQueue) Push(x any) {
	it := x.(*pqItem)
	it.index = len(*pq)
	*pq = append(*pq, it)
}
func (pq *priorityQueue) Pop() any {
	old := *pq
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*pq = old[:n-1]
	return it
}

// MLTrajectoryDijkstra computes the same maximum-likelihood trajectory as
// MLTrajectory by running Dijkstra's algorithm on the Fig. 2 graph with
// edge costs −log π(x) (source edges) and −log P(x′|x) (layer edges); all
// costs are non-negative so Dijkstra applies, as the paper notes. It is
// the paper's Section IV-B formulation, kept as the oracle the layered
// DP is cross-checked against; complexity O(T·L² log(TL)).
func MLTrajectoryDijkstra(c *markov.Chain, T int, excl *ExclusionSet) (markov.Trajectory, float64, error) {
	if T <= 0 {
		return nil, 0, fmt.Errorf("trellis: horizon %d must be positive", T)
	}
	pi, err := c.SteadyState()
	if err != nil {
		return nil, 0, err
	}
	L := c.NumStates()
	inf := math.Inf(1)
	dist := make([][]float64, T)
	prev := make([][]int32, T)
	done := make([][]bool, T)
	for t := 0; t < T; t++ {
		dist[t] = make([]float64, L)
		prev[t] = make([]int32, L)
		done[t] = make([]bool, L)
		for x := 0; x < L; x++ {
			dist[t][x] = inf
			prev[t][x] = -1
		}
	}
	pq := &priorityQueue{}
	heap.Init(pq)
	for x := 0; x < L; x++ {
		if excl.Excluded(x, 0) || pi[x] <= 0 {
			continue
		}
		dist[0][x] = -math.Log(pi[x])
		heap.Push(pq, &pqItem{slot: 0, cell: x, dist: dist[0][x]})
	}
	bestEnd, bestCost := -1, inf
	for pq.Len() > 0 {
		it := heap.Pop(pq).(*pqItem)
		if done[it.slot][it.cell] || it.dist > dist[it.slot][it.cell] {
			continue
		}
		done[it.slot][it.cell] = true
		if it.slot == T-1 {
			// First settled vertex in the last layer is the optimum end.
			bestEnd, bestCost = it.cell, it.dist
			break
		}
		t := it.slot + 1
		for _, x := range c.Successors(it.cell) {
			if excl.Excluded(x, t) {
				continue
			}
			nd := it.dist - c.LogProb(it.cell, x)
			if nd < dist[t][x] || (nd == dist[t][x] && int32(it.cell) < prev[t][x] && prev[t][x] >= 0) {
				dist[t][x] = nd
				prev[t][x] = int32(it.cell)
				heap.Push(pq, &pqItem{slot: t, cell: x, dist: nd})
			}
		}
	}
	if bestEnd < 0 {
		return nil, 0, fmt.Errorf("trellis: length-%d trajectory: %w", T, ErrInfeasible)
	}
	tr := make(markov.Trajectory, T)
	tr[T-1] = bestEnd
	for t := T - 1; t > 0; t-- {
		tr[t-1] = int(prev[t][tr[t]])
	}
	return tr, -bestCost, nil
}
