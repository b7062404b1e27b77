package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"chaffmec"
	"chaffmec/internal/chaff"
	"chaffmec/internal/detect"
	"chaffmec/internal/engine"
	"chaffmec/internal/rng"
)

// Span names of the kernel replay, one per layer entry point.
const (
	spanCampaign   = "campaign"
	spanSample     = "markov.sample"
	spanGenerate   = "chaff.generate"
	spanGamma      = "chaff.gamma"
	spanPack       = "detect.pack"
	spanScore      = "detect.score"
	spanAccumulate = "engine.accumulate"
)

// replay re-runs one campaign's run range block by block through the
// calls the engine's batch path makes — markov.(*Chain).SampleBatch,
// chaff.GenerateInto, detect.(*Block).SetColumn/SetTrajectory,
// BlockScorer.ScoreBlock, engine.(*SeriesStats).Add — on one goroutine,
// so each call can be timed as a span of the layer it enters.
type replay struct {
	chain     *chaffmec.Chain
	strat     chaffmec.Strategy
	scorer    detect.BlockScorer
	gamma     *gammaTimer // non-nil when scorer is the advanced detector
	fleet     []chaffmec.Trajectory
	user      int // the scored column: 0 for a sampled user, else a fleet index
	numChaffs int
	horizon   int
	seed      int64
	blocks    [][2]int // the engine's dispatch chunks, in run order
	detection bool     // also accumulate the detection series
}

// replayOut is what one pass produced.
type replayOut struct {
	track, det *engine.SeriesStats
	wall       time.Duration
	root       int // the campaign span (-1 untraced)
	runs       int
}

// gammaTimer wraps the Γ handed to detect.NewAdvancedDetector, timing
// each call as a child of the score span that made it.
type gammaTimer struct {
	g      chaffmec.GammaFunc
	tr     *tracer
	parent int
}

func (g *gammaTimer) call(u chaffmec.Trajectory) (chaffmec.Trajectory, error) {
	id := g.tr.begin(spanGamma, g.parent)
	out, err := g.g(u)
	g.tr.end(id)
	return out, err
}

// blockRanges splits [start, end) into consecutive chunks of width runs.
func blockRanges(start, end, width int) [][2]int {
	var out [][2]int
	for s := start; s < end; s += width {
		out = append(out, [2]int{s, min(s+width, end)})
	}
	return out
}

// engineWidth is the chunk width the engine dispatches a RunBlock config
// at: the calibrated block, clamped to runs/workers and to [1, 256].
func engineWidth(runs, workers, block int) int {
	return max(1, min(block, runs/max(1, workers), 256))
}

// run executes one pass; with a nil tracer nothing is recorded, so the
// untraced and traced passes differ only by the spans.
func (rp *replay) run(tr *tracer) (replayOut, error) {
	U := 1 + rp.numChaffs
	if rp.fleet != nil {
		U = len(rp.fleet) + rp.numChaffs
	}
	T := rp.horizon
	width := 0
	for _, b := range rp.blocks {
		width = max(width, b[1]-b[0])
	}
	srcs := make([]rng.Source, width)
	rngs := make([]*rand.Rand, width)
	for i := range srcs {
		rngs[i] = rand.New(&srcs[i])
	}
	ws := detect.GetWorkspace()
	defer ws.Release()
	users := make([]int32, width*T)
	userBuf := make(chaffmec.Trajectory, T)
	chaffBufs := make([]chaffmec.Trajectory, rp.numChaffs)
	for i := range chaffBufs {
		chaffBufs[i] = make(chaffmec.Trajectory, T)
	}
	first := rp.blocks[0][0]
	out := replayOut{track: engine.NewSeriesStatsAt(T, first), root: -1}
	if rp.detection {
		out.det = engine.NewSeriesStatsAt(T, first)
	}
	if rp.gamma != nil {
		rp.gamma.tr = tr
	}

	begin := time.Now()
	root := tr.begin(spanCampaign, -1)
	for _, b := range rp.blocks {
		B := b[1] - b[0]
		for i := 0; i < B; i++ {
			srcs[i].Reseed(rp.seed, b[0]+i)
		}
		bank := rngs[:B]
		blk := ws.Block(B, U, T)
		chaffCol := 1
		if rp.fleet != nil {
			chaffCol = len(rp.fleet)
		} else {
			id := tr.begin(spanSample, root)
			err := rp.chain.SampleBatch(bank, T, users[:B*T])
			tr.end(id)
			if err != nil {
				return out, err
			}
		}
		for r := 0; r < B; r++ {
			userTraj := userBuf
			if rp.fleet != nil {
				userTraj = rp.fleet[rp.user]
			} else {
				for t := 0; t < T; t++ {
					userBuf[t] = int(users[t*B+r])
				}
			}
			id := tr.begin(spanGenerate, root)
			err := chaff.GenerateInto(rp.strat, bank[r], userTraj, chaffBufs)
			tr.end(id)
			if err != nil {
				return out, err
			}
			id = tr.begin(spanPack, root)
			if rp.fleet != nil {
				for u, ft := range rp.fleet {
					if err = blk.SetTrajectory(r, u, ft); err != nil {
						break
					}
				}
			} else {
				blk.SetColumn(r, 0, users, B, r)
			}
			for i, ch := range chaffBufs {
				if err == nil {
					err = blk.SetTrajectory(r, chaffCol+i, ch)
				}
			}
			tr.end(id)
			if err != nil {
				return out, err
			}
		}
		id := tr.begin(spanScore, root)
		if rp.gamma != nil {
			rp.gamma.parent = id
		}
		err := rp.scorer.ScoreBlock(blk, rp.user)
		tr.end(id)
		if err != nil {
			return out, err
		}
		id = tr.begin(spanAccumulate, root)
		for r := 0; r < B && err == nil; r++ {
			err = out.track.Add(blk.Tracking(r))
			if err == nil && out.det != nil {
				err = out.det.Add(blk.Detection(r))
			}
		}
		tr.end(id)
		if err != nil {
			return out, err
		}
		out.runs += B
	}
	tr.end(root)
	out.wall = time.Since(begin)
	out.root = root
	return out, nil
}

// sameSeries reports whether the replay's series equal the report's bit
// for bit. Go's JSON encoder writes every float64 in its shortest exact
// form, so equal encodings mean equal bits.
func (o replayOut) sameSeries(rep *chaffmec.Report) (bool, error) {
	pairs := []struct {
		name string
		s    *engine.SeriesStats
	}{{"tracking", o.track}, {"detection", o.det}}
	for _, p := range pairs {
		if p.s == nil {
			continue
		}
		want, ok := rep.Series[p.name]
		if !ok {
			return false, fmt.Errorf("report has no %s series", p.name)
		}
		a, err := json.Marshal(p.s.Snapshot())
		if err != nil {
			return false, err
		}
		b, err := json.Marshal(want)
		if err != nil {
			return false, err
		}
		if string(a) != string(b) {
			return false, nil
		}
	}
	return true, nil
}

// traceReplay runs the replay untraced and traced, alternating, and
// fills the kernel layers' metrics from the traced pass whose wall is
// the median. Every pass must reproduce the reference report. It
// returns the traced spans for writing out.
func traceReplay(rp *replay, ref *chaffmec.Report, reps int, m metrics, checks *tally) ([]span, error) {
	var untraced []float64
	type pass struct {
		tr  *tracer
		out replayOut
	}
	var traced []pass
	// A first, discarded pass pays the workspace's first-touch costs.
	if _, err := rp.run(nil); err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	for i := 0; i < reps; i++ {
		for _, tr := range []*tracer{nil, newTracer()} {
			out, err := rp.run(tr)
			if err != nil {
				return nil, fmt.Errorf("replay: %w", err)
			}
			same, err := out.sameSeries(ref)
			if err != nil {
				return nil, err
			}
			checks.record(same)
			if tr == nil {
				untraced = append(untraced, out.wall.Seconds())
			} else {
				traced = append(traced, pass{tr, out})
			}
		}
	}
	// The middle traced pass by wall time stands for all of them.
	sort.Slice(traced, func(i, j int) bool { return traced[i].out.wall < traced[j].out.wall })
	mid := traced[len(traced)/2]
	spans := mid.tr.snapshot()
	layers, unattributed, wall := attribution(spans, mid.out.root)
	if gap := attributionGap(layers, unattributed, wall); gap > time.Microsecond {
		return spans, fmt.Errorf("replay: layer self times plus unattributed time miss the wall %v by %v", wall, gap)
	}
	runs := float64(mid.out.runs)
	U := 1 + rp.numChaffs
	if rp.fleet != nil {
		U = len(rp.fleet) + rp.numChaffs
	}
	slots := runs * float64(rp.horizon)
	ns := func(name string) float64 { return float64(layers[name].Self.Nanoseconds()) }
	m.set("chaff.generate_ns_per_run", ns(spanGenerate)/runs)
	m.set("chaff.gamma_ns_per_run", ns(spanGamma)/runs)
	m.set("chaff.gamma_calls_per_run", float64(layers[spanGamma].Count)/runs)
	m.set("markov.sample_ns_per_slot", ns(spanSample)/slots)
	m.set("detect.pack_ns_per_run", ns(spanPack)/runs)
	m.set("detect.score_ns_per_slot", ns(spanScore)/(slots*float64(U)))
	m.set("engine.accumulate_ns_per_run", ns(spanAccumulate)/runs)
	m.set("engine.blocks", float64(len(rp.blocks)))
	m.set("trace.unattributed_share", unattributed.Seconds()/wall.Seconds())
	m.set("trace.overhead_share", mid.out.wall.Seconds()/median(untraced)-1)
	return spans, nil
}
