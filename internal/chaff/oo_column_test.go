package chaff

import (
	"math"
	"testing"

	"chaffmec/internal/markov"
	"chaffmec/internal/rng"
)

// bestSuccessorScan is the successor kernel OO used before the ranked,
// bounded scan: every successor in index order, strict <, so a tie keeps
// the lowest index. It is the oracle for bestSuccessor.
func bestSuccessorScan(c *markov.Chain, x int, next []float64) (float64, int32) {
	L := len(next)
	lp := c.LogProbs()[x*L : (x+1)*L]
	best, bestX := math.Inf(1), int32(-1)
	for _, xn := range c.Successors(x) {
		if v := -lp[xn] + next[xn]; v < best {
			best, bestX = v, int32(xn)
		}
	}
	return best, bestX
}

// viterbiScan is OO.viterbi over the full-scan kernel.
func viterbiScan(s *OO, v []float64, back []int32, T int) {
	c := s.chain
	L := c.NumStates()
	inf := math.Inf(1)
	base := (T - 1) * L
	for x := 0; x < L; x++ {
		v[base+x] = 0
		if s.excl.Excluded(x, T-1) {
			v[base+x] = inf
		}
		back[base+x] = -1
	}
	for t := T - 2; t >= 0; t-- {
		row, next := v[t*L:(t+1)*L], v[(t+1)*L:(t+2)*L]
		brow := back[t*L : (t+1)*L]
		for x := 0; x < L; x++ {
			row[x], brow[x] = inf, -1
			if s.excl.Excluded(x, t) {
				continue
			}
			row[x], brow[x] = bestSuccessorScan(c, x, next)
		}
	}
}

// columnScan is OO.column over the full-scan kernel: budget column i
// into cur and back (one column's backpointers), reading column i−1
// from prev.
func columnScan(s *OO, cur, prev []float64, back []int32, v []float64, vBack []int32, user markov.Trajectory, i int) {
	c := s.chain
	L := c.NumStates()
	T := len(user)
	inf := math.Inf(1)
	free := max(T-i, 0)
	copy(cur[free*L:], v[free*L:])
	copy(back[free*L:], vBack[free*L:])
	top := free - 1
	if i == 0 {
		base := (T - 1) * L
		for x := 0; x < L; x++ {
			cur[base+x] = v[base+x]
			if x == user[T-1] {
				cur[base+x] = inf
			}
			back[base+x] = -1
		}
		top = T - 2
	}
	for t := top; t >= 0; t-- {
		row, brow := cur[t*L:(t+1)*L], back[t*L:(t+1)*L]
		vrow := v[t*L : (t+1)*L]
		curNext, prevNext := cur[(t+1)*L:(t+2)*L], prev[(t+1)*L:(t+2)*L]
		for x := 0; x < L; x++ {
			row[x], brow[x] = inf, -1
			switch {
			case math.IsInf(vrow[x], 1):
			case x != user[t]:
				row[x], brow[x] = bestSuccessorScan(c, x, curNext)
			case i > 0:
				row[x], brow[x] = bestSuccessorScan(c, x, prevNext)
			}
		}
	}
}

// ooColumnMaxBudget is the last budget column the differential checks.
const ooColumnMaxBudget = 8

// ooColumnDifferential checks OO's ranked, bounded successor scan
// against the full scan on one drawn chain with probabilities from a
// few tied levels and zero transitions (moStepChain), so log P values
// and DP sums tie exactly and often. For a sampled user and a uniform
// (often impossible) one, each without and with ROO exclusions, the
// Viterbi snapshot and every budget column 0..min(T, 8) must match the
// oracle in every value bit and every backpointer.
func ooColumnDifferential(t testing.TB, seed int64, n, levels, T, pairs int) {
	t.Helper()
	r := rng.New(seed)
	c, _ := moStepChain(r, n, levels)
	sampled, err := c.Sample(r, T)
	if err != nil {
		t.Fatal(err)
	}
	uniform := make(markov.Trajectory, T)
	for k := range uniform {
		uniform[k] = r.Intn(n)
	}
	TL := T * n
	nb := min(T, ooColumnMaxBudget) + 1
	for _, user := range []markov.Trajectory{sampled, uniform} {
		for _, s := range []*OO{NewOO(c), {chain: c, excl: drawExclusions(r, []markov.Trajectory{sampled, uniform}, pairs)}} {
			v, vBack := s.viterbiFor(T)
			wantV, wantBack := make([]float64, TL), make([]int32, TL)
			viterbiScan(s, wantV, wantBack, T)
			compareColumn(t, "V", user, v, vBack, wantV, wantBack)

			w := &ooWork{prev: make([]float64, TL), cur: make([]float64, TL),
				prevMin: make([]float64, T), curMin: make([]float64, T), back: make([]int32, nb*TL)}
			cur, prev, back := make([]float64, TL), make([]float64, TL), make([]int32, TL)
			for i := 0; i < nb; i++ {
				w.prev, w.cur = w.cur, w.prev
				w.prevMin, w.curMin = w.curMin, w.prevMin
				s.column(w, v, vBack, user, i)
				prev, cur = cur, prev
				columnScan(s, cur, prev, back, v, vBack, user, i)
				compareColumn(t, "budget column", user, w.cur, w.back[i*TL:(i+1)*TL], cur, back)
			}
		}
	}
}

// compareColumn fails unless got and want match in every value bit and
// every backpointer.
func compareColumn(t testing.TB, what string, user markov.Trajectory, got []float64, gotBack []int32, want []float64, wantBack []int32) {
	t.Helper()
	for k := range want {
		if math.Float64bits(got[k]) != math.Float64bits(want[k]) || gotBack[k] != wantBack[k] {
			t.Fatalf("user %v: %s entry %d: ranked scan (%v, %d), full scan (%v, %d)", user, what, k, got[k], gotBack[k], want[k], wantBack[k])
		}
	}
}

func TestOOColumnMatchesFullScan(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		r := rng.New(rng.Derive(seed, 5))
		ooColumnDifferential(t, seed, 1+r.Intn(10), 1+r.Intn(4), 1+r.Intn(40), 1+r.Intn(4))
	}
}

func FuzzOOColumn(f *testing.F) {
	f.Add(int64(0), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(int64(7), uint8(9), uint8(1), uint8(39), uint8(3))
	f.Add(int64(-3), uint8(4), uint8(3), uint8(12), uint8(7))
	f.Fuzz(func(t *testing.T, seed int64, cells, levels, horizon, pairs uint8) {
		ooColumnDifferential(t, seed, 1+int(cells%12), 1+int(levels%4), 1+int(horizon%40), 1+int(pairs%8))
	})
}
