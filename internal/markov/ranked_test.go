package markov

import (
	"math"
	"slices"
	"sync"
	"testing"

	"chaffmec/internal/rng"
)

// rankedChain has tied successor probabilities in every row, an
// impossible transition, and a pinned π with a zero and a tie.
func rankedChain(t *testing.T) *Chain {
	t.Helper()
	c, err := NewWithStationary([][]float64{
		{0.25, 0.5, 0.25, 0},
		{0.1, 0.3, 0.3, 0.3},
		{0, 0, 0, 1},
		{0.4, 0.2, 0.4, 0},
	}, []float64{0.3, 0, 0.3, 0.4})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestRankedSuccessorsOrder(t *testing.T) {
	c := rankedChain(t)
	rows := c.RankedSuccessors()
	want := [][]int32{{1, 0, 2}, {1, 2, 3, 0}, {3}, {0, 2, 1}}
	for x, w := range want {
		if got := rows.Row(x); !slices.Equal(got, w) {
			t.Fatalf("row %d = %v, want %v", x, got, w)
		}
	}
	start, err := c.RankedSteadyState()
	if err != nil {
		t.Fatal(err)
	}
	if want := []int32{3, 0, 2}; !slices.Equal(start, want) {
		t.Fatalf("RankedSteadyState = %v, want %v", start, want)
	}
}

// TestRankedMatchesFirstWinsArgmax: on random chains whose rows draw
// their weights from {0, 1, 2, 3}, so ties are common, each ranked row
// is the row's successors ordered by log P descending with ties in index
// order, which is the order repeated first-wins argmax extraction gives.
func TestRankedMatchesFirstWinsArgmax(t *testing.T) {
	r := rng.New(7)
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(12)
		p := make([][]float64, n)
		for x := range p {
			p[x] = make([]float64, n)
			p[x][r.Intn(n)] = 1
			sum := 0.0
			for y := range p[x] {
				p[x][y] += float64(r.Intn(4))
				sum += p[x][y]
			}
			for y := range p[x] {
				p[x][y] /= sum
			}
		}
		c := MustNew(p)
		rows := c.RankedSuccessors()
		for x := 0; x < c.NumStates(); x++ {
			if got, want := rows.Row(x), argmaxOrder(c.Successors(x), c.LogProbs()[x*c.NumStates():]); !slices.Equal(got, want) {
				t.Fatalf("chain %d row %d = %v, want %v", trial, x, got, want)
			}
		}
	}
}

// argmaxOrder lists cells by repeatedly taking the first-wins argmax of
// score among those not yet taken.
func argmaxOrder(cells []int, score []float64) []int32 {
	taken := make([]bool, len(cells))
	var out []int32
	for range cells {
		best, bestV := -1, math.Inf(-1)
		for i, x := range cells {
			if !taken[i] && (best < 0 || score[x] > bestV) {
				best, bestV = i, score[x]
			}
		}
		taken[best] = true
		out = append(out, int32(cells[best]))
	}
	return out
}

// TestRankedConcurrentFirstUse builds both tables from many goroutines
// at once on a fresh chain; under -race this checks the lazy build.
func TestRankedConcurrentFirstUse(t *testing.T) {
	ref := rankedChain(t)
	c := rankedChain(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for x := 0; x < c.NumStates(); x++ {
				if got, want := c.RankedSuccessors().Row(x), ref.RankedSuccessors().Row(x); !slices.Equal(got, want) {
					t.Errorf("row %d = %v, want %v", x, got, want)
				}
			}
			got, _ := c.RankedSteadyState()
			want, _ := ref.RankedSteadyState()
			if !slices.Equal(got, want) {
				t.Errorf("RankedSteadyState = %v, want %v", got, want)
			}
		}()
	}
	wg.Wait()
}

// TestRankedCostsNegateLogProbs: each ranked row's costs are its
// entries' −log P bit for bit, so they ascend, on tied rows and on a
// sparse chain.
func TestRankedCostsNegateLogProbs(t *testing.T) {
	for name, c := range map[string]*Chain{"tied": rankedChain(t), "sparse": batchTestChains(t)["sparse"]} {
		n := c.NumStates()
		rows := c.RankedSuccessors()
		for x := 0; x < n; x++ {
			to, cost := rows.RowCosts(x)
			if !slices.Equal(to, rows.Row(x)) || len(cost) != len(to) {
				t.Fatalf("%s row %d: RowCosts gives %d cells and %d costs, Row %v", name, x, len(to), len(cost), rows.Row(x))
			}
			for k, y := range to {
				if want := -c.LogProbs()[x*n+int(y)]; math.Float64bits(cost[k]) != math.Float64bits(want) {
					t.Fatalf("%s row %d, cell %d: cost %v, want %v", name, x, y, cost[k], want)
				}
				if k > 0 && cost[k] < cost[k-1] {
					t.Fatalf("%s row %d: costs %v do not ascend", name, x, cost)
				}
			}
		}
	}
}
