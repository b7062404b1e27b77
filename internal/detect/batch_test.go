package detect

import (
	"math/rand"
	"testing"

	"chaffmec/internal/markov"
	"chaffmec/internal/rng"
)

func makeRuns(n int, seed int64) []*rand.Rand {
	out := make([]*rand.Rand, n)
	for i := range out {
		out[i] = rng.NewRun(seed, i)
	}
	return out
}

// batchScoreCase builds B runs × U trajectories over the given chains:
// most trajectories sampled from sampleChain (which may differ from the
// scoring chain, planting impossible transitions and -Inf rows), with
// every duplicateEvery-th trajectory copied from its predecessor to
// engineer tie-heavy slots.
func batchScoreCase(t *testing.T, sample *markov.Chain, B, U, T int, duplicateEvery int, seed int64) [][]markov.Trajectory {
	t.Helper()
	runs := make([][]markov.Trajectory, B)
	for r := range runs {
		rng := rng.NewRun(seed, r)
		trs := make([]markov.Trajectory, U)
		for u := range trs {
			if duplicateEvery > 0 && u > 0 && u%duplicateEvery == 0 {
				trs[u] = trs[u-1].Clone()
				continue
			}
			tr, err := sample.Sample(rng, T)
			if err != nil {
				t.Fatalf("sampling run %d trajectory %d: %v", r, u, err)
			}
			trs[u] = tr
		}
		runs[r] = trs
	}
	return runs
}

// scalarReference runs the scalar pipeline (PrefixDetectionsWith +
// metrics) for one run.
func scalarReference(t *testing.T, det PrefixDetector, trs []markov.Trajectory, user int) (track, detAcc []float64) {
	t.Helper()
	ws := NewWorkspace()
	dets, err := det.PrefixDetectionsWith(ws, trs)
	if err != nil {
		t.Fatalf("scalar detections: %v", err)
	}
	track, err = TrackingAccuracySeries(dets, trs, user)
	if err != nil {
		t.Fatalf("scalar tracking: %v", err)
	}
	detAcc, err = DetectionAccuracySeries(dets, len(trs), user)
	if err != nil {
		t.Fatalf("scalar detection: %v", err)
	}
	return track, detAcc
}

func fillBlock(t *testing.T, ws *Workspace, runs [][]markov.Trajectory) *Block {
	t.Helper()
	B, U, T := len(runs), len(runs[0]), len(runs[0][0])
	blk := ws.Block(B, U, T)
	for r, trs := range runs {
		for u, tr := range trs {
			if err := blk.SetTrajectory(r, u, tr); err != nil {
				t.Fatalf("SetTrajectory(%d,%d): %v", r, u, err)
			}
		}
	}
	return blk
}

func compareBlock(t *testing.T, name string, blk *Block, det PrefixDetector, runs [][]markov.Trajectory, user int) {
	t.Helper()
	for r, trs := range runs {
		wantTrack, wantDet := scalarReference(t, det, trs, user)
		gotTrack, gotDet := blk.Tracking(r), blk.Detection(r)
		for tt := range wantTrack {
			if gotTrack[tt] != wantTrack[tt] {
				t.Fatalf("%s: run %d slot %d tracking: batch %v, scalar %v", name, r, tt, gotTrack[tt], wantTrack[tt])
			}
			if gotDet[tt] != wantDet[tt] {
				t.Fatalf("%s: run %d slot %d detection: batch %v, scalar %v", name, r, tt, gotDet[tt], wantDet[tt])
			}
		}
	}
}

func scoringChains(t *testing.T) (score, foreign *markov.Chain) {
	t.Helper()
	score = markov.MustNew([][]float64{
		{0.1, 0.6, 0.3, 0},
		{0, 0.5, 0.25, 0.25},
		{0.7, 0, 0.3, 0},
		{0.25, 0.25, 0.25, 0.25},
	})
	// The foreign chain reaches transitions the scoring chain forbids,
	// driving scored likelihoods to -Inf mid-run.
	foreign = markov.MustNew([][]float64{
		{0.25, 0.25, 0.25, 0.25},
		{0.25, 0.25, 0.25, 0.25},
		{0.25, 0.25, 0.25, 0.25},
		{0.25, 0.25, 0.25, 0.25},
	})
	return score, foreign
}

// TestMLScoreBlockMatchesScalar is the detector differential test: the
// batch sweep must reproduce the scalar pipeline bit for bit, including
// tie-heavy (duplicated and uniform-chain) and -Inf (foreign-chain)
// cases.
func TestMLScoreBlockMatchesScalar(t *testing.T) {
	score, foreign := scoringChains(t)
	uniform := foreign // all rows equal: every trajectory ties at every slot
	cases := []struct {
		name      string
		sample    *markov.Chain
		score     *markov.Chain
		dupEvery  int
		user      int
		B, U, T   int
		caseSeeed int64
	}{
		{name: "plain", sample: score, score: score, B: 6, U: 3, T: 20, user: 0},
		{name: "tie-heavy-duplicates", sample: score, score: score, dupEvery: 2, B: 5, U: 6, T: 15, user: 0},
		{name: "uniform-all-tied", sample: uniform, score: uniform, B: 4, U: 4, T: 12, user: 2},
		{name: "minus-inf-rows", sample: foreign, score: score, B: 6, U: 4, T: 18, user: 1},
		{name: "single-run-single-traj", sample: score, score: score, B: 1, U: 1, T: 5, user: 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			runs := batchScoreCase(t, tc.sample, tc.B, tc.U, tc.T, tc.dupEvery, 77)
			det := NewMLDetector(tc.score)
			ws := NewWorkspace()
			blk := fillBlock(t, ws, runs)
			if err := det.ScoreBlock(blk, tc.user); err != nil {
				t.Fatalf("ScoreBlock: %v", err)
			}
			compareBlock(t, tc.name, blk, det, runs, tc.user)
		})
	}
}

// TestAdvancedScoreBlockMatchesScalar covers the Γ-filtered path,
// including the all-filtered fallback (identity Γ marks every duplicate
// as a chaff).
func TestAdvancedScoreBlockMatchesScalar(t *testing.T) {
	score, foreign := scoringChains(t)
	identity := func(user markov.Trajectory) (markov.Trajectory, error) {
		return user.Clone(), nil
	}
	constant := func(user markov.Trajectory) (markov.Trajectory, error) {
		out := make(markov.Trajectory, len(user))
		for i := range out {
			out[i] = 1
		}
		return out, nil
	}
	cases := []struct {
		name     string
		sample   *markov.Chain
		gamma    GammaFunc
		dupEvery int
		B, U, T  int
	}{
		{name: "constant-gamma", sample: score, gamma: constant, B: 5, U: 4, T: 16},
		// Duplicated trajectories + identity Γ: each duplicate pair
		// filters BOTH members (each is Γ of the other), exercising
		// partially- and fully-filtered include sets.
		{name: "identity-gamma-duplicates", sample: score, gamma: identity, dupEvery: 1, B: 4, U: 4, T: 10},
		{name: "identity-gamma-mixed", sample: score, gamma: identity, dupEvery: 3, B: 5, U: 7, T: 12},
		{name: "minus-inf-filtered", sample: foreign, gamma: constant, B: 4, U: 4, T: 14},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			runs := batchScoreCase(t, tc.sample, tc.B, tc.U, tc.T, tc.dupEvery, 123)
			det, err := NewAdvancedDetector(score, tc.gamma)
			if err != nil {
				t.Fatal(err)
			}
			ws := NewWorkspace()
			blk := fillBlock(t, ws, runs)
			if err := det.ScoreBlock(blk, 0); err != nil {
				t.Fatalf("ScoreBlock: %v", err)
			}
			compareBlock(t, tc.name, blk, det, runs, 0)
		})
	}
}

// TestBlockReuse reshapes one workspace arena across different block
// geometries and re-verifies correctness — the reuse pattern of the
// engine's per-worker arenas.
func TestBlockReuse(t *testing.T) {
	score, _ := scoringChains(t)
	det := NewMLDetector(score)
	ws := NewWorkspace()
	for i, dims := range [][3]int{{8, 3, 30}, {2, 5, 10}, {16, 2, 4}, {8, 3, 30}} {
		B, U, T := dims[0], dims[1], dims[2]
		runs := batchScoreCase(t, score, B, U, T, 0, int64(500+i))
		blk := fillBlock(t, ws, runs)
		if err := det.ScoreBlock(blk, 0); err != nil {
			t.Fatalf("reshape %d: %v", i, err)
		}
		compareBlock(t, "reuse", blk, det, runs, 0)
	}
}

// TestScoreBlockAllocs pins the warm ML scoring kernels, tiled and
// flat, at zero allocations per block.
func TestScoreBlockAllocs(t *testing.T) {
	score, _ := scoringChains(t)
	det := NewMLDetector(score)
	for _, k := range []struct {
		name  string
		score func(*Block, int) error
	}{
		{"ScoreBlock", det.ScoreBlock},
		{"ScoreBlockFlat", det.ScoreBlockFlat},
	} {
		ws := NewWorkspace()
		runs := batchScoreCase(t, score, 16, 3, 50, 0, 9)
		blk := fillBlock(t, ws, runs)
		if err := k.score(blk, 0); err != nil { // warm caches
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if err := k.score(blk, 0); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("warm %s allocates %v per block, want 0", k.name, allocs)
		}
	}
}

func TestScoreBlockValidates(t *testing.T) {
	score, _ := scoringChains(t)
	det := NewMLDetector(score)
	ws := NewWorkspace()
	blk := ws.Block(1, 1, 3)
	if err := blk.SetTrajectory(0, 0, markov.Trajectory{0, 1}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if err := blk.SetTrajectory(0, 0, markov.Trajectory{0, 1, 99}); err != nil {
		t.Fatalf("SetTrajectory: %v", err)
	}
	if err := det.ScoreBlock(blk, 0); err == nil {
		t.Fatal("out-of-range state accepted")
	}
	if err := blk.SetTrajectory(0, 0, markov.Trajectory{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := det.ScoreBlock(blk, 1); err == nil {
		t.Fatal("user index outside block accepted")
	}
}

// TestSetColumnMatchesSetTrajectory checks the SoA bridge from
// markov.SampleBatch's layout into the block.
func TestSetColumnMatchesSetTrajectory(t *testing.T) {
	score, _ := scoringChains(t)
	const B, T = 4, 9
	soa := make([]int32, B*T)
	rngs := makeRuns(B, 31)
	if err := score.SampleBatch(rngs, T, soa); err != nil {
		t.Fatal(err)
	}
	ws := NewWorkspace()
	blk := ws.Block(B, 2, T)
	buf := make(markov.Trajectory, T)
	for r := 0; r < B; r++ {
		blk.SetColumn(r, 0, soa, B, r)
		for tt := 0; tt < T; tt++ {
			buf[tt] = int(soa[tt*B+r])
		}
		if err := blk.SetTrajectory(r, 1, buf); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < B; r++ {
		a := blk.Gather(r, 0, nil)
		b := blk.Gather(r, 1, nil)
		if !a.Equal(b) {
			t.Fatalf("run %d: SetColumn %v != SetTrajectory %v", r, a, b)
		}
	}
}
