package detect

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"chaffmec/internal/markov"
	"chaffmec/internal/mobility"
	"chaffmec/internal/rng"
)

// TestScoreBlockFlatMatchesTiled pins the tiled ScoreBlock against the
// retained flat reference kernel bit for bit, including a geometry wide
// enough (B·U > blockTileLanes) that the tiled sweep actually splits
// into several run tiles, and against the scalar pipeline as the common
// oracle.
func TestScoreBlockFlatMatchesTiled(t *testing.T) {
	score, foreign := scoringChains(t)
	cases := []struct {
		name     string
		sample   *markov.Chain
		dupEvery int
		B, U, T  int
		user     int
	}{
		{name: "single-tile", sample: score, B: 8, U: 5, T: 25, user: 1},
		{name: "tie-heavy", sample: score, dupEvery: 2, B: 6, U: 6, T: 12, user: 0},
		{name: "minus-inf", sample: foreign, B: 5, U: 4, T: 16, user: 2},
		// 48*64 = 3072 lanes > blockTileLanes: the tiled kernel walks two
		// run tiles, the flat one a single fused plane.
		{name: "multi-tile", sample: score, B: 48, U: 64, T: 8, user: 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			runs := batchScoreCase(t, tc.sample, tc.B, tc.U, tc.T, tc.dupEvery, 901)
			det := NewMLDetector(score)

			wsTiled := NewWorkspace()
			tiled := fillBlock(t, wsTiled, runs)
			if err := det.ScoreBlock(tiled, tc.user); err != nil {
				t.Fatalf("ScoreBlock: %v", err)
			}

			wsFlat := NewWorkspace()
			flat := fillBlock(t, wsFlat, runs)
			if err := det.ScoreBlockFlat(flat, tc.user); err != nil {
				t.Fatalf("ScoreBlockFlat: %v", err)
			}

			for r := 0; r < tc.B; r++ {
				ta, tb := tiled.Tracking(r), flat.Tracking(r)
				da, db := tiled.Detection(r), flat.Detection(r)
				for tt := 0; tt < tc.T; tt++ {
					if ta[tt] != tb[tt] || da[tt] != db[tt] {
						t.Fatalf("run %d slot %d: tiled (%v, %v) != flat (%v, %v)",
							r, tt, ta[tt], da[tt], tb[tt], db[tt])
					}
				}
			}
			compareBlock(t, tc.name, tiled, det, runs, tc.user)
		})
	}
}

// tiledFloorReps is how many back-to-back block scores one timed leg
// of TestTiledScoreFloor runs: enough to dwarf timer and scheduler
// granularity, few enough that 11 pairs take about a second.
const tiledFloorReps = 200

// TestTiledScoreFloor holds the tiled ScoreBlock to at least 1.3× the
// speed of the flat reference kernel on the paper protocol's shape
// (spatially skewed chain, L=10, user + 3 chaffs, T=100) at one block
// of 64 runs. Both kernels score the same block in the same process, so
// the ratio does not depend on the host's absolute speed. The legs run
// as 11 interleaved pairs, alternating which goes first, and the median
// ratio is gated, so one noisy pair cannot pass or fail the test.
func TestTiledScoreFloor(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("timing floor: skipped under -short and -race")
	}
	chain, err := mobility.Build(mobility.ModelSpatiallySkewed, rng.New(99), 10)
	if err != nil {
		t.Fatal(err)
	}
	const B, U, T = 64, 4, 100
	det := NewMLDetector(chain)
	blk := fillBlock(t, NewWorkspace(), batchScoreCase(t, chain, B, U, T, 0, 1))
	leg := func(score func(*Block, int) error) time.Duration {
		begin := time.Now()
		for i := 0; i < tiledFloorReps; i++ {
			if err := score(blk, 0); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(begin)
	}
	leg(det.ScoreBlockFlat) // warm caches
	leg(det.ScoreBlock)

	ratios := make([]float64, 11)
	for i := range ratios {
		var flat, tiled time.Duration
		if i%2 == 0 {
			flat = leg(det.ScoreBlockFlat)
			tiled = leg(det.ScoreBlock)
		} else {
			tiled = leg(det.ScoreBlock)
			flat = leg(det.ScoreBlockFlat)
		}
		ratios[i] = float64(flat) / float64(tiled)
	}
	sort.Float64s(ratios)
	median := ratios[len(ratios)/2]
	t.Logf("flat/tiled over %d pairs: median %.2f, range [%.2f, %.2f]", len(ratios), median, ratios[0], ratios[len(ratios)-1])
	if median < 1.3 {
		t.Fatalf("tiled ScoreBlock is only %.2fx faster than ScoreBlockFlat (median of %d pairs), want >= 1.3x", median, len(ratios))
	}
}

// TestBlockGrowsInPlace pins the arena-reuse contract: reshaping to a
// geometry the backing arrays can already hold reuses them in place (no
// reallocation), while a larger geometry grows them.
func TestBlockGrowsInPlace(t *testing.T) {
	ws := NewWorkspace()
	big := ws.Block(16, 4, 32)
	p := &big.traj[0]
	q := &big.track[0]

	small := ws.Block(8, 2, 16)
	if small != big {
		t.Fatal("Block returned a different arena object on reshape")
	}
	if &small.traj[0] != p || &small.track[0] != q {
		t.Fatal("shrinking reshape reallocated backing arrays")
	}
	if small.Runs() != 8 || small.Trajectories() != 2 || small.Slots() != 16 {
		t.Fatalf("reshaped dims %d×%d×%d, want 8×2×16", small.Runs(), small.Trajectories(), small.Slots())
	}

	grown := ws.Block(64, 8, 64)
	if &grown.traj[0] == p {
		t.Fatal("growing reshape kept a too-small trajectory array")
	}
}

// TestBlockReshapeInvalidatesSeries demonstrates the documented
// invalidation of previously returned Tracking/Detection series: they
// alias the arena, so a reshape + rescore rewrites what old views see —
// callers must copy results out before reusing the workspace.
func TestBlockReshapeInvalidatesSeries(t *testing.T) {
	score, _ := scoringChains(t)
	det := NewMLDetector(score)
	ws := NewWorkspace()

	const B, U, T = 4, 3, 10
	runs := batchScoreCase(t, score, B, U, T, 0, 71)
	blk := fillBlock(t, ws, runs)
	if err := det.ScoreBlock(blk, 0); err != nil {
		t.Fatal(err)
	}
	stale := blk.Tracking(0)
	snapshot := append([]float64(nil), stale...)

	// Same arena, different geometry and data: the stale view now reads
	// run 0's slots of the NEW layout.
	runs2 := batchScoreCase(t, score, B, U, T, 2, 72)
	blk2 := fillBlock(t, ws, runs2)
	if err := det.ScoreBlock(blk2, 1); err != nil {
		t.Fatal(err)
	}
	fresh := blk2.Tracking(0)
	if &stale[0] != &fresh[0] {
		t.Fatal("reshape with unchanged capacity moved the tracking arena")
	}
	same := true
	for i := range stale {
		if stale[i] != snapshot[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("rescore left the stale series view unchanged; invalidation test is vacuous")
	}
}

// TestPooledWorkspacesDoNotShareBlocks runs concurrent get/score/release
// cycles through the workspace pool under the race detector: if two live
// workspaces ever shared a Block arena, the concurrent ScoreBlock writes
// would race.
func TestPooledWorkspacesDoNotShareBlocks(t *testing.T) {
	score, _ := scoringChains(t)
	det := NewMLDetector(score)
	const workers, rounds = 8, 20
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			const B, U, T = 4, 3, 12
			tr := make(markov.Trajectory, T)
			for i := 0; i < rounds; i++ {
				ws := GetWorkspace()
				blk := ws.Block(B, U, T)
				for r := 0; r < B; r++ {
					for u := 0; u < U; u++ {
						for tt := range tr {
							tr[tt] = (g + r + u + tt + i) % score.NumStates()
						}
						if err := blk.SetTrajectory(r, u, tr); err != nil {
							errs <- err
							ws.Release()
							return
						}
					}
				}
				if err := det.ScoreBlock(blk, 0); err != nil {
					errs <- err
					ws.Release()
					return
				}
				ws.Release()
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// ScoreBlockFlat is the pre-tiling batch kernel: one fused pass per
// slot over the whole (B·U) plane with the generic filtered reduce. It
// is ScoreBlock's differential reference (bit-identical results) and
// the baseline of the tiled kernel's speed floor (TestTiledScoreFloor).
func (d *MLDetector) ScoreBlockFlat(blk *Block, user int) error {
	B, U, T := blk.b, blk.u, blk.t
	if B < 1 || T < 1 {
		return errors.New("detect: empty block")
	}
	if U < 1 {
		return errors.New("detect: no trajectories")
	}
	if user < 0 || user >= U {
		return fmt.Errorf("detect: user index %d outside [0,%d)", user, U)
	}
	n := d.chain.NumStates()
	for i, v := range blk.traj[:B*U*T] {
		if v < 0 || int(v) >= n {
			return fmt.Errorf("detect: state %d at block index %d outside [0,%d)", v, i, n)
		}
	}
	logPi, err := d.chain.LogSteadyState()
	if err != nil {
		return err
	}
	logp := d.chain.LogProbs()

	// Initialize the running log-likelihoods from log π on the t=0 plane.
	ll := blk.ll
	for i, v := range blk.traj[:B*U] {
		ll[i] = logPi[v]
	}

	stride := B * U
	for t := 0; t < T; t++ {
		cur := blk.traj[t*stride : (t+1)*stride]
		if t > 0 {
			// Branch-free accumulation across all runs in flight: one
			// fused pass over the slot plane.
			prev := blk.traj[(t-1)*stride : t*stride]
			for i, c := range cur {
				ll[i] += logp[int(prev[i])*n+int(c)]
			}
		}
		for r := 0; r < B; r++ {
			row := ll[r*U : (r+1)*U]
			states := cur[r*U : (r+1)*U]
			track, det := reduceSlot(row, states, nil, user)
			blk.track[r*T+t] = track
			blk.det[r*T+t] = det
		}
	}
	return nil
}
