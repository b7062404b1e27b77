package detect

import (
	"errors"
	"fmt"
	"math"

	"chaffmec/internal/markov"
)

// Block is the structure-of-arrays batch-scoring arena: B Monte-Carlo
// runs in flight, each observing U trajectories of T slots. Trajectories
// live in one flat int32 array laid out slot-major — slot t of run r,
// trajectory u sits at (t*B+r)*U+u — so the scoring kernel streams each
// slot's B*U states contiguously. The running log-likelihood matrix, the
// advanced detector's survivor bitmap and the per-run output series are
// preallocated alongside, which is what takes the steady-state per-run
// allocations of the hot path to ~0.
//
// A Block is owned by its Workspace (Workspace.Block reshapes and
// returns the same arena) and, like the Workspace, is not safe for
// concurrent use. Series returned by Tracking/Detection alias the arena
// and stay valid only until the next Block or Score call.
type Block struct {
	b, u, t int

	traj    []int32   // (t*B+r)*U+u → state
	ll      []float64 // r*U+u → running prefix log-likelihood
	include []bool    // r*U+u → advanced-detector survivor mask
	track   []float64 // r*T+t → per-slot tracking accuracy
	det     []float64 // r*T+t → per-slot detection accuracy

	// Precomputed quotient tables for the slot reduce: with U
	// trajectories per run the tie set has 1..U members and 0..U hits, so
	// every track/det value the reduce can emit is one of (U+1)² ratios.
	// frac[h*(U+1)+k] = float64(h)/float64(k) and rcp[k] = 1/float64(k),
	// computed by the same IEEE divisions the scalar pipeline performs,
	// so table lookups are bit-identical to dividing in the loop — they
	// just move two float64 divisions per (run, slot) out of the kernel.
	frac []float64
	rcp  []float64

	// tileTrack/tileDet are the dense sweep's per-tile output staging:
	// reduceTileDense emits slot-major (t*nr+i, contiguous within each
	// slot call) and the tile epilogue transposes into the run-major
	// track/det series — sequential stores in both phases instead of
	// stride-T scatter per slot (measurably the tiled kernel's largest
	// single cost before staging).
	tileTrack []float64
	tileDet   []float64

	// Scratch for the advanced detector's per-run Γ evaluation (it needs
	// array-of-trajectories views of one run's block column).
	gatherTrs []markov.Trajectory
	gatherBuf []int
}

// Block reshapes the workspace's batch arena to B runs × U trajectories
// × T slots and returns it. Backing arrays grow on demand and are
// reused across calls; previously returned series are invalidated.
func (ws *Workspace) Block(B, U, T int) *Block {
	if ws.block == nil {
		ws.block = &Block{}
	}
	blk := ws.block
	blk.b, blk.u, blk.t = B, U, T
	blk.traj = growInt32(blk.traj, B*U*T)
	blk.ll = growFloats(blk.ll, B*U)
	blk.include = growBools(blk.include, B*U)
	blk.track = growFloats(blk.track, B*T)
	blk.det = growFloats(blk.det, B*T)
	if nr := blockTileLanes / U; nr < 1 || nr > B {
		blk.tileTrack = growFloats(blk.tileTrack, B*T)
		blk.tileDet = growFloats(blk.tileDet, B*T)
	} else {
		blk.tileTrack = growFloats(blk.tileTrack, nr*T)
		blk.tileDet = growFloats(blk.tileDet, nr*T)
	}
	if len(blk.frac) != (U+1)*(U+1) {
		blk.frac = growFloats(blk.frac, (U+1)*(U+1))
		blk.rcp = growFloats(blk.rcp, U+1)
		blk.rcp[0] = 0 // index 0 = "user not in the tie set" → det 0
		for k := 1; k <= U; k++ {
			blk.rcp[k] = 1 / float64(k)
			for h := 0; h <= U; h++ {
				blk.frac[h*(U+1)+k] = float64(h) / float64(k)
			}
		}
	}
	return blk
}

func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

// Runs returns B, the number of runs in flight.
func (blk *Block) Runs() int { return blk.b }

// Trajectories returns U, the trajectories observed per run.
func (blk *Block) Trajectories() int { return blk.u }

// Slots returns T, the horizon.
func (blk *Block) Slots() int { return blk.t }

// SetTrajectory scatters trajectory u of run r into the block. tr must
// have exactly T entries; state validity is checked once per block by
// the scorers.
func (blk *Block) SetTrajectory(r, u int, tr markov.Trajectory) error {
	if len(tr) != blk.t {
		return fmt.Errorf("detect: trajectory %d has length %d, want %d", u, len(tr), blk.t)
	}
	stride := blk.b * blk.u
	base := r*blk.u + u
	for t, v := range tr {
		blk.traj[t*stride+base] = int32(v)
	}
	return nil
}

// SetColumn scatters trajectory u of run r from a structure-of-arrays
// sample block (markov.SampleBatch layout: src[t*B+r] with the given B
// and the run index col within it). It is the no-gather bridge from the
// sampling kernel into the scoring block.
func (blk *Block) SetColumn(r, u int, src []int32, srcB, col int) {
	stride := blk.b * blk.u
	base := r*blk.u + u
	for t := 0; t < blk.t; t++ {
		blk.traj[t*stride+base] = src[t*srcB+col]
	}
}

// Gather copies trajectory u of run r out of the block into dst,
// growing it as needed, and returns it.
func (blk *Block) Gather(r, u int, dst markov.Trajectory) markov.Trajectory {
	if cap(dst) < blk.t {
		dst = make(markov.Trajectory, blk.t)
	}
	dst = dst[:blk.t]
	stride := blk.b * blk.u
	base := r*blk.u + u
	for t := range dst {
		dst[t] = int(blk.traj[t*stride+base])
	}
	return dst
}

// Tracking returns run r's per-slot tracking-accuracy series, valid
// until the arena is reshaped or rescored. The values are bit-identical
// to TrackingAccuracySeries over the scalar detector's tie sets.
func (blk *Block) Tracking(r int) []float64 { return blk.track[r*blk.t : (r+1)*blk.t] }

// Detection returns run r's per-slot detection-accuracy series, valid
// until the arena is reshaped or rescored; bit-identical to
// DetectionAccuracySeries over the scalar tie sets.
func (blk *Block) Detection(r int) []float64 { return blk.det[r*blk.t : (r+1)*blk.t] }

// BlockScorer is the batch counterpart of PrefixDetector: score a whole
// Block of runs in flight, filling its Tracking/Detection series for
// the trajectory column user. Both eavesdroppers implement it.
type BlockScorer interface {
	PrefixDetector
	ScoreBlock(blk *Block, user int) error
}

var (
	_ BlockScorer = (*MLDetector)(nil)
	_ BlockScorer = (*AdvancedDetector)(nil)
)

// ScoreBlock runs the ML detector (Eq. 1) over every run of the block in
// a tiled slot-major sweep: the runs are split into tiles whose
// log-likelihood rows (and, for the advanced detector, survivor bitmap)
// fit in L1, and each tile's prefix log-likelihoods advance through all
// T slots before the next tile is touched — the ll matrix stays
// cache-resident across slots instead of being streamed B·U wide per
// slot. Per slot the tile accumulates through markov.AddLogProbTile's
// unrolled gather and reduces each run's argmax/tie statistics directly
// into its tracking/detection series. Results are bit-identical to the
// scalar PrefixDetectionsWith + metrics pipeline run per run, and to
// ScoreBlockFlat.
//
//chaffmec:hotpath
func (d *MLDetector) ScoreBlock(blk *Block, user int) error {
	return d.scoreBlock(blk, user, false)
}

// blockTileLanes bounds a score tile's working set: tileRuns·U ≤ 2048
// lanes keeps the tile's ll rows (16 KiB of float64) plus the current
// and previous trajectory planes (8 KiB of int32 each) inside a 32 KiB
// L1d across all T slots. Small-U blocks (the simulated scenarios) fit
// in one tile; the strategy-aware trace eavesdropper's runs (a ~155-
// member fleet plus chaffs) split into ~13-run tiles. The basic trace
// eavesdropper packs no block: it scores chaffs against a Fleet.
const blockTileLanes = 2048

//chaffmec:hotpath
func (d *MLDetector) scoreBlock(blk *Block, user int, filtered bool) error {
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

	tileRuns := blockTileLanes / U
	if tileRuns < 1 {
		tileRuns = 1
	}
	stride := B * U
	for r0 := 0; r0 < B; r0 += tileRuns {
		r1 := r0 + tileRuns
		if r1 > B {
			r1 = B
		}
		nr := r1 - r0
		lo, hi := r0*U, r1*U
		ll := blk.ll[lo:hi]
		// Initialize the tile's running log-likelihoods from log π on
		// the t=0 plane.
		for i, v := range blk.traj[lo:hi] {
			ll[i] = logPi[v]
		}
		for t := 0; t < T; t++ {
			cur := blk.traj[t*stride+lo : t*stride+hi]
			if t > 0 {
				prev := blk.traj[(t-1)*stride+lo : (t-1)*stride+hi]
				d.chain.AddLogProbTile(ll, prev, cur)
			}
			if filtered {
				for r := r0; r < r1; r++ {
					row := ll[(r-r0)*U : (r-r0+1)*U]
					states := cur[(r-r0)*U : (r-r0+1)*U]
					inc := blk.include[r*U : (r+1)*U]
					track, det := reduceSlot(row, states, inc, user)
					blk.track[r*T+t] = track
					blk.det[r*T+t] = det
				}
			} else if U == 4 {
				// The paper protocol's shape (user + 3 chaffs): fully
				// unrolled reduce, staged slot-major at t*nr.
				reduceTileDense4(ll, cur, user, blk.frac, blk.rcp, blk.tileTrack, blk.tileDet, t*nr)
			} else {
				// Stage slot-major: this slot's nr results land
				// contiguously at t*nr, transposed run-major below.
				reduceTileDense(ll, cur, U, user, blk.frac, blk.rcp, blk.tileTrack, blk.tileDet, t*nr, 1)
			}
		}
		if !filtered {
			for i := 0; i < nr; i++ {
				rt := blk.track[(r0+i)*T : (r0+i)*T+T]
				rd := blk.det[(r0+i)*T : (r0+i)*T+T]
				for t := 0; t < T; t++ {
					rt[t] = blk.tileTrack[t*nr+i]
					rd[t] = blk.tileDet[t*nr+i]
				}
			}
		}
	}
	return nil
}

// ScoreBlockFlat is the pre-tiling batch kernel: one fused pass per
// slot over the whole (B·U) plane with the generic filtered reduce. It
// is ScoreBlock's differential reference (bit-identical results) and
// the baseline of the tiled kernel's speed floor (TestTiledScoreFloor).
//
//chaffmec:hotpath
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

// reduceSlot computes one run's slot metrics from its log-likelihood row
// without materializing the tie set, replicating appendArgmaxSet's
// semantics exactly: an empty include set yields a uniform guess over
// all trajectories, an all-(-Inf) row over the included ones, and
// otherwise members within llTieTol of the maximum. The returned values
// match float64(hits)/float64(|set|) and 1/float64(|set|) bit for bit.
//
//chaffmec:hotpath
func reduceSlot(row []float64, states []int32, include []bool, user int) (track, det float64) {
	best := math.Inf(-1)
	n := 0
	for u, v := range row {
		if include != nil && !include[u] {
			continue
		}
		n++
		if v > best {
			best = v
		}
	}
	userState := states[user]
	ties, hits := 0, 0
	userIn := false
	switch {
	case n == 0:
		// Everything filtered out: uniform guess over all trajectories.
		ties = len(row)
		for u := range row {
			if states[u] == userState {
				hits++
			}
		}
		userIn = true
	case math.IsInf(best, -1):
		for u := range row {
			if include != nil && !include[u] {
				continue
			}
			ties++
			if states[u] == userState {
				hits++
			}
			if u == user {
				userIn = true
			}
		}
	default:
		for u, v := range row {
			if include != nil && !include[u] {
				continue
			}
			if best-v <= llTieTol {
				ties++
				if states[u] == userState {
					hits++
				}
				if u == user {
					userIn = true
				}
			}
		}
	}
	track = float64(hits) / float64(ties)
	if userIn {
		det = 1 / float64(ties)
	}
	return track, det
}

// reduceTileDense is reduceSlot specialized for the unfiltered (plain
// ML) sweep, applied to one slot plane of a whole run tile per call so
// the per-run reduce pays no call or slice-header overhead: with no
// survivor mask the member count is always U, the empty-include branch
// vanishes, the per-element include checks drop out of both passes, and
// the two closing float64 divisions become lookups into the Block's
// precomputed quotient tables (frac/rcp, width U+1 — same IEEE
// divisions, done once at arena reshape). Which trajectory is the
// argmax is data-dependent, so the tie test is written as flag
// arithmetic (SETcc material) instead of a branch the predictor would
// miss once per row, and det is selected by index (rcp[0] is pinned to
// 0 for "user not in the tie set") instead of a float assignment under
// a data-dependent branch. The tie comparison stays literally
// best-v <= llTieTol, so every emitted value is bit-identical to
// reduceSlot(row, states, nil, user) run per run.
//
// ll and states are the tile's slot plane (len(ll)/U runs of U lanes);
// run i's results land at track[out+i*stride] / det[out+i*stride].
//
//chaffmec:hotpath
func reduceTileDense(ll []float64, states []int32, U, user int, frac, rcp, track, det []float64, out, stride int) {
	w := U + 1
	states = states[:len(ll)] // one bound for both planes
	for base := 0; base+U <= len(ll); base += U {
		best := ll[base]
		for j := base + 1; j < base+U; j++ {
			best = max(best, ll[j])
		}
		userState := states[base+user]
		ties, hits := 0, 0
		if math.IsInf(best, -1) {
			// Every prefix impossible: the tie set is all trajectories,
			// and the user is always a member.
			for j := base; j < base+U; j++ {
				if states[j] == userState {
					hits++
				}
			}
			track[out] = frac[hits*w+U]
			det[out] = rcp[U]
			out += stride
			continue
		}
		for j := base; j < base+U; j++ {
			m := 0
			if best-ll[j] <= llTieTol {
				m = 1
			}
			e := 0
			if states[j] == userState {
				e = 1
			}
			ties += m
			hits += m & e
		}
		k := 0
		if best-ll[base+user] <= llTieTol {
			k = ties
		}
		track[out] = frac[hits*w+ties]
		det[out] = rcp[k]
		out += stride
	}
}

// reduceTileDense4 is reduceTileDense with U fixed at 4 — the paper
// protocol's observed-trajectory count (the user plus three chaffs) and
// the shape every inner-loop instruction count matters most for. The
// row loops are fully unrolled into straight-line flag arithmetic, so a
// run costs no loop bookkeeping at all; the emitted values follow the
// exact reduceSlot comparisons (literally best-v <= llTieTol against
// the same max) and stay bit-identical to it. Results land at
// track[out+i] / det[out+i] for run i — the slot-major staging layout.
//
//chaffmec:hotpath
func reduceTileDense4(ll []float64, states []int32, user int, frac, rcp, track, det []float64, out int) {
	const U, w = 4, 5
	states = states[:len(ll)]
	for base := 0; base+U <= len(ll); base += U {
		v0, v1, v2, v3 := ll[base], ll[base+1], ll[base+2], ll[base+3]
		best := max(max(v0, v1), max(v2, v3))
		userState := states[base+user]
		e0, e1, e2, e3 := 0, 0, 0, 0
		if states[base] == userState {
			e0 = 1
		}
		if states[base+1] == userState {
			e1 = 1
		}
		if states[base+2] == userState {
			e2 = 1
		}
		if states[base+3] == userState {
			e3 = 1
		}
		if math.IsInf(best, -1) {
			// Every prefix impossible: the tie set is all trajectories,
			// and the user is always a member.
			track[out] = frac[(e0+e1+e2+e3)*w+U]
			det[out] = rcp[U]
			out++
			continue
		}
		m0, m1, m2, m3 := 0, 0, 0, 0
		if best-v0 <= llTieTol {
			m0 = 1
		}
		if best-v1 <= llTieTol {
			m1 = 1
		}
		if best-v2 <= llTieTol {
			m2 = 1
		}
		if best-v3 <= llTieTol {
			m3 = 1
		}
		ties := m0 + m1 + m2 + m3
		hits := m0&e0 + m1&e1 + m2&e2 + m3&e3
		k := 0
		if best-ll[base+user] <= llTieTol {
			k = ties
		}
		track[out] = frac[hits*w+ties]
		det[out] = rcp[k]
		out++
	}
}

// ScoreBlock runs the strategy-aware eavesdropper over every run of the
// block: per run, the Γ-based survivor filter of Section VI-A is
// evaluated on the run's trajectories (gathered from the block), then
// the shared ML sweep scores all runs among their survivors. Bit-
// identical to the scalar PrefixDetectionsWith + metrics pipeline.
//
//chaffmec:hotpath
func (d *AdvancedDetector) ScoreBlock(blk *Block, user int) error {
	B, U, T := blk.b, blk.u, blk.t
	if B < 1 || U < 1 || T < 1 {
		return errors.New("detect: empty block")
	}
	if cap(blk.gatherBuf) < U*T {
		blk.gatherBuf = make([]int, U*T)
	}
	if cap(blk.gatherTrs) < U {
		blk.gatherTrs = make([]markov.Trajectory, U)
	}
	buf := blk.gatherBuf[:U*T]
	trs := blk.gatherTrs[:U]
	for r := 0; r < B; r++ {
		for u := 0; u < U; u++ {
			trs[u] = blk.Gather(r, u, buf[u*T:u*T:(u+1)*T])
		}
		if _, err := d.survivorsInto(blk.include[r*U:(r+1)*U], trs); err != nil {
			return err
		}
	}
	return d.ml.scoreBlock(blk, user, true)
}
