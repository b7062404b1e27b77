package markov

import (
	"math"
	"slices"
	"testing"
)

// sparseFuzzValues are the entries that probe the validation edges: zero
// (listed, so not a successor), −0, NaN, values just past and just
// inside ProbTolerance above 1, a tiny negative, +Inf and exact 1.
var sparseFuzzValues = []float64{
	0, math.Copysign(0, -1), math.NaN(),
	1 + 2*ProbTolerance, 1 + ProbTolerance/2,
	-1e-300, math.Inf(1), 1,
}

// fuzzBytes hands out the fuzz input one byte at a time, zeros once it
// runs dry.
type fuzzBytes []byte

func (b *fuzzBytes) next() byte {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return v
}

// fuzzSparseRows decodes random sparse rows and a stationary vector from
// data. corrupt reports whether some row's columns were made out of
// range, out of order or repeated.
func fuzzSparseRows(data []byte) (rows []SparseRow, pi []float64, corrupt bool) {
	b := fuzzBytes(data)
	n := 1 + int(b.next()%6)
	rows = make([]SparseRow, n)
	for i := range rows {
		mask := b.next()
		var r SparseRow
		sum := 0.0
		for j := 0; j < n; j++ {
			if mask>>j&1 == 0 {
				continue
			}
			w := b.next()
			r.Cols = append(r.Cols, j)
			if w >= 224 {
				r.Vals = append(r.Vals, math.NaN()) // marks a special value, below
			} else {
				r.Vals = append(r.Vals, float64(w%8))
				sum += float64(w % 8)
			}
		}
		for k, v := range r.Vals {
			switch {
			case math.IsNaN(v):
				r.Vals[k] = sparseFuzzValues[int(b.next())%len(sparseFuzzValues)]
			case sum > 0:
				r.Vals[k] = v / sum
			}
		}
		switch op := b.next(); {
		case op < 232 || len(r.Cols) == 0:
		case op < 240 && len(r.Cols) >= 2:
			k := int(b.next()) % (len(r.Cols) - 1)
			r.Cols[k], r.Cols[k+1] = r.Cols[k+1], r.Cols[k]
			corrupt = true
		case op < 248 && len(r.Cols) >= 2:
			k := int(b.next()) % (len(r.Cols) - 1)
			r.Cols[k+1] = r.Cols[k]
			corrupt = true
		case op < 252:
			r.Cols[len(r.Cols)-1] = n
			corrupt = true
		default:
			r.Cols[0] = -1
			corrupt = true
		}
		rows[i] = r
	}
	pi = make([]float64, n)
	sum := 0.0
	for i := range pi {
		pi[i] = float64(b.next() % 4)
		sum += pi[i]
	}
	for i := range pi {
		if sum > 0 {
			pi[i] /= sum
		}
	}
	switch mode := b.next(); {
	case mode < 200:
	case mode < 210:
		pi = append(pi, 0)
	case mode < 220:
		pi = pi[:n-1]
	case mode < 240:
		pi[int(b.next())%n] = sparseFuzzValues[int(b.next())%len(sparseFuzzValues)]
	default:
		for i := range pi {
			pi[i] /= 2
		}
	}
	return rows, pi, corrupt
}

// denseRows expands ascending, in-range sparse rows to dense rows.
func denseRows(rows []SparseRow) [][]float64 {
	p := make([][]float64, len(rows))
	for i, r := range rows {
		p[i] = make([]float64, len(rows))
		for k, j := range r.Cols {
			p[i][j] = r.Vals[k]
		}
	}
	return p
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// FuzzSparseChain: for ascending rows, NewSparseWithStationary and
// NewWithStationary over the expanded rows both fail with the same
// error, or agree on every field bit for bit (matrix, logs, successor
// lists, steady state). Rows with out-of-range, out-of-order or
// repeated columns must fail.
func FuzzSparseChain(f *testing.F) {
	f.Add([]byte{2, 0b11, 3, 5, 0, 0b10, 1, 0, 1, 2, 0})
	f.Add([]byte{3, 0b101, 230, 7, 1, 0, 0b1, 250, 1, 0, 0b110, 2, 2, 0, 1, 1, 1, 0})
	f.Add([]byte{1, 0, 0, 1, 0})
	f.Add([]byte{4, 0b1111, 1, 2, 3, 4, 235, 0, 0b11, 1, 1, 0, 0b1, 1, 0, 0b1000, 1, 0, 1, 1, 1, 1, 230, 2, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		rows, pi, corrupt := fuzzSparseRows(data)
		got, gotErr := NewSparseWithStationary(rows, pi)
		if corrupt {
			if gotErr == nil {
				t.Fatalf("rows with bad columns accepted: %+v", rows)
			}
			return
		}
		want, wantErr := NewWithStationary(denseRows(rows), pi)
		switch {
		case gotErr != nil || wantErr != nil:
			if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
				t.Fatalf("errors differ: sparse %v, dense %v", gotErr, wantErr)
			}
			return
		}
		if got.n != want.n || !sameBits(got.p, want.p) || !sameBits(got.logp, want.logp) {
			t.Fatalf("matrices differ:\nsparse %v %v\ndense  %v %v", got.p, got.logp, want.p, want.logp)
		}
		if !slices.EqualFunc(got.succ, want.succ, slices.Equal[[]int]) {
			t.Fatalf("successors differ: sparse %v, dense %v", got.succ, want.succ)
		}
		if !sameBits(got.MustSteadyState(), want.MustSteadyState()) {
			t.Fatal("steady states differ")
		}
	})
}

// TestSparseChainKeepsNegativeZero: a listed −0 is stored with its sign
// bit, as New stores it, and is not a successor.
func TestSparseChainKeepsNegativeZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	c, err := NewSparseWithStationary([]SparseRow{
		{Cols: []int{0, 1}, Vals: []float64{negZero, 1}},
		{Cols: []int{0}, Vals: []float64{1}},
	}, []float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if !math.Signbit(c.Prob(0, 0)) || !math.IsInf(c.LogProb(0, 0), -1) {
		t.Fatalf("P[0][0] = %v, log %v; want −0, −Inf", c.Prob(0, 0), c.LogProb(0, 0))
	}
	if !slices.Equal(c.Successors(0), []int{1}) {
		t.Fatalf("successors of 0: %v, want [1]", c.Successors(0))
	}
}
