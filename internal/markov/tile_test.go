package markov

import (
	"math"
	"math/rand"
	"testing"

	"chaffmec/internal/rng"
)

// tileTestBlock samples a B×T slot-major block from the chain, then
// optionally punches impossible transitions into some lanes so the -Inf
// epilogue semantics get exercised alongside the dense path.
func tileTestBlock(t *testing.T, c *Chain, B, T int, breakLanes []int) []int32 {
	t.Helper()
	streams := make([]*rand.Rand, B)
	for r := range streams {
		streams[r] = rng.NewRun(17, r)
	}
	dst := make([]int32, B*T)
	if err := c.SampleBatch(streams, T, dst); err != nil {
		t.Fatalf("SampleBatch: %v", err)
	}
	n := c.NumStates()
	for _, r := range breakLanes {
		// Force slot T/2 of lane r onto a state the previous slot cannot
		// reach, if one exists (dense chains have none — skip those).
		prev := int(dst[(T/2-1)*B+r])
		for s := 0; s < n; s++ {
			if c.Prob(prev, s) == 0 {
				dst[(T/2)*B+r] = int32(s)
				break
			}
		}
	}
	return dst
}

// TestLogProbBatchMatchesLogLikelihood is the tile kernel's differential
// test: every lane of the batch must reproduce, bit for bit, the scalar
// LogLikelihood of the gathered trajectory — including exact -Inf for
// lanes routed through an impossible transition.
func TestLogProbBatchMatchesLogLikelihood(t *testing.T) {
	const B, T = 13, 29
	for name, c := range batchTestChains(t) {
		t.Run(name, func(t *testing.T) {
			states := tileTestBlock(t, c, B, T, []int{2, 5, 11})
			got := make([]float64, B)
			if err := c.LogProbBatch(states, B, T, got); err != nil {
				t.Fatalf("LogProbBatch: %v", err)
			}
			tr := make(Trajectory, T)
			for r := 0; r < B; r++ {
				for tt := 0; tt < T; tt++ {
					tr[tt] = int(states[tt*B+r])
				}
				want, err := c.LogLikelihood(tr)
				if err != nil {
					t.Fatalf("LogLikelihood lane %d: %v", r, err)
				}
				if got[r] != want && !(math.IsNaN(got[r]) && math.IsNaN(want)) {
					t.Fatalf("lane %d: batch %v, scalar %v", r, got[r], want)
				}
			}
		})
	}
}

// TestAddLogProbTileMatchesLogProb pins the slot kernel element-wise
// against the scalar LogProb accessor, including the ragged tail the
// 4-wide unroll leaves behind.
func TestAddLogProbTileMatchesLogProb(t *testing.T) {
	c := batchTestChains(t)["sparse"]
	n := c.NumStates()
	src := rng.New(7)
	for _, m := range []int{1, 2, 3, 4, 5, 7, 8, 16, 31} {
		prev := make([]int32, m)
		cur := make([]int32, m)
		ll := make([]float64, m)
		want := make([]float64, m)
		for i := 0; i < m; i++ {
			prev[i] = int32(src.Intn(n))
			cur[i] = int32(src.Intn(n))
			ll[i] = src.NormFloat64()
			want[i] = ll[i] + c.LogProb(int(prev[i]), int(cur[i]))
		}
		c.AddLogProbTile(ll, prev, cur)
		for i := range ll {
			if ll[i] != want[i] && !(math.IsNaN(ll[i]) && math.IsNaN(want[i])) {
				t.Fatalf("m=%d lane %d: tile %v, scalar %v", m, i, ll[i], want[i])
			}
		}
	}
}

func TestLogProbBatchValidates(t *testing.T) {
	c := batchTestChains(t)["two-state"]
	dst := make([]float64, 4)
	if err := c.LogProbBatch(make([]int32, 12), 0, 3, dst); err == nil {
		t.Fatal("B=0 accepted")
	}
	if err := c.LogProbBatch(make([]int32, 12), 4, 0, dst); err == nil {
		t.Fatal("T=0 accepted")
	}
	if err := c.LogProbBatch(make([]int32, 11), 4, 3, dst); err == nil {
		t.Fatal("short block accepted")
	}
	if err := c.LogProbBatch(make([]int32, 12), 4, 3, dst[:3]); err == nil {
		t.Fatal("short dst accepted")
	}
	bad := make([]int32, 12)
	bad[5] = 9
	if err := c.LogProbBatch(bad, 4, 3, dst); err == nil {
		t.Fatal("out-of-range state accepted")
	}
}

// TestLogProbBatchAllocs pins the warm tile kernel at zero allocations
// per block (CI reruns it under GOAMD64=v3).
func TestLogProbBatchAllocs(t *testing.T) {
	c := batchTestChains(t)["sparse"]
	const B, T = 64, 50
	states := tileTestBlock(t, c, B, T, nil)
	dst := make([]float64, B)
	if err := c.LogProbBatch(states, B, T, dst); err != nil { // warm log π
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := c.LogProbBatch(states, B, T, dst); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm LogProbBatch allocates %v per block, want 0", allocs)
	}
}

// TestTransitionLogLikelihoodImpossible pins the satellite fix: on an
// impossible trajectory TransitionLogLikelihood must return exactly the
// -Inf LogLikelihood reports (it used to keep accumulating onto the
// already -Inf sum), and the two must stay consistent on possible ones
// (they differ by exactly the log π(x₀) term).
func TestTransitionLogLikelihoodImpossible(t *testing.T) {
	c := batchTestChains(t)["sparse"]
	impossible := []Trajectory{
		{0, 0},          // P(0|0) = 0
		{0, 1, 1},       // P(1|1) = 0
		{1, 0, 3, 1, 2}, // P(3|0) = 0 mid-trajectory
	}
	for _, tr := range impossible {
		full, err := c.LogLikelihood(tr)
		if err != nil {
			t.Fatalf("LogLikelihood(%v): %v", tr, err)
		}
		trans, err := c.TransitionLogLikelihood(tr)
		if err != nil {
			t.Fatalf("TransitionLogLikelihood(%v): %v", tr, err)
		}
		if !math.IsInf(full, -1) || trans != full {
			t.Fatalf("%v: LogLikelihood %v, TransitionLogLikelihood %v, want both -Inf", tr, full, trans)
		}
	}
	possible := Trajectory{0, 1, 0, 2, 1, 3, 0}
	full, err := c.LogLikelihood(possible)
	if err != nil {
		t.Fatal(err)
	}
	trans, err := c.TransitionLogLikelihood(possible)
	if err != nil {
		t.Fatal(err)
	}
	logPi, err := c.LogSteadyState()
	if err != nil {
		t.Fatal(err)
	}
	if got := logPi[possible[0]] + trans; math.Abs(got-full) > 1e-12 {
		t.Fatalf("logπ+transition = %v, LogLikelihood = %v", got, full)
	}
}
