package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"chaffmec"
	"chaffmec/internal/coordinator"
	"chaffmec/internal/detect"
)

// tracedFleetCampaigns is how many fleet campaigns the traced run times;
// each gives the worker and wire percentiles ~4 dispatches.
const tracedFleetCampaigns = 8

// timedTransport is the client side of one worker, timing each dispatch
// as a span under the campaign's and keeping the shard reports that came
// back. It forwards LastWire, so the coordinator still sees wire costs.
type timedTransport struct {
	inner *coordinator.HTTP
	label string
	w     *fleetWorkload

	mu   sync.Mutex
	reps []*chaffmec.Report
}

func (t *timedTransport) Name() string                 { return t.inner.Name() }
func (t *timedTransport) LastWire() chaffmec.WireStats { return t.inner.LastWire() }

func (t *timedTransport) Run(ctx context.Context, job chaffmec.Job) (*chaffmec.Report, error) {
	id := t.w.tr.begin(t.label, t.w.campaignRoot)
	rep, err := t.inner.Run(ctx, job)
	t.w.tr.end(id)
	if err == nil {
		t.mu.Lock()
		t.reps = append(t.reps, rep)
		t.mu.Unlock()
	}
	return rep, err
}

// timedHandler is the server side of one worker: each request it serves
// is a root span.
func timedHandler(tr *tracer, label string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		id := tr.begin(label, -1)
		h.ServeHTTP(rw, r)
		tr.end(id)
	})
}

// eventCounts tallies one campaign's coordinator Progress events. The
// coordinator calls observe on its driving goroutine only.
type eventCounts struct {
	dispatches, results, failures, banked, speculative int
	sent, received                                     int64
	open                                               map[chaffmec.Shard]int
}

func (c *eventCounts) reset() { *c = eventCounts{open: map[chaffmec.Shard]int{}} }

func (c *eventCounts) observe(e chaffmec.FanOutEvent) {
	switch e.Kind {
	case chaffmec.EventDispatch:
		c.dispatches++
		if c.open[e.Shard] > 0 {
			c.speculative++ // handed out again while still in flight
		}
		c.open[e.Shard]++
	case chaffmec.EventResult, chaffmec.EventPartial:
		c.results++
		c.sent += e.Wire.Sent
		c.received += e.Wire.Received
		c.open[e.Shard]--
	case chaffmec.EventFailure:
		c.failures++
		c.open[e.Shard]--
	case chaffmec.EventBanked:
		c.banked++
	}
}

// traced times the TraceLab build and the calibration, replays one
// shard's kernel calls at the trace shape, then runs traced fleet
// campaigns and passes the last one's shard reports through the report
// and store layers.
func (w *fleetWorkload) traced(ctx context.Context, m metrics, checks *tally) ([]span, error) {
	begin := time.Now()
	lab, err := chaffmec.BuildTraceLab(w.labConfig())
	if err != nil {
		return nil, err
	}
	m.set("figures.tracelab_build_s", time.Since(begin).Seconds())
	w.block = timeCalibration(m, lab.Chain, len(lab.Trajectories)+1, lab.Horizon)

	replaySpans, err := w.replayShard(ctx, lab, m, checks)
	if err != nil {
		return replaySpans, err
	}
	last, err := w.tracedCampaigns(ctx, m, checks)
	if err != nil {
		return replaySpans, err
	}
	if err := w.reportProbe(last, m, checks); err != nil {
		return replaySpans, err
	}
	return appendSpans(replaySpans, w.tr.snapshot()), nil
}

// replayShard replays the first of the campaign's four shards the way a
// worker runs it: split into eight chunks, each an engine run with one
// worker at the calibrated width.
func (w *fleetWorkload) replayShard(ctx context.Context, lab *chaffmec.TraceLab, m metrics, checks *tally) ([]span, error) {
	sp := w.spec(0)
	end := sp.Runs / (fleetWorkers * 2)
	ref, err := chaffmec.RunJob(ctx, chaffmec.Job{Spec: sp, Shard: chaffmec.Shard{Start: 0, End: end}})
	if err != nil {
		return nil, err
	}
	top, _, err := lab.TopUsers(1)
	if err != nil {
		return nil, err
	}
	strat, err := chaffmec.NewStrategy(sp.Strategy, lab.Chain)
	if err != nil {
		return nil, err
	}
	var blocks [][2]int
	chunk := (end + 7) / 8
	for _, c := range blockRanges(0, end, chunk) {
		blocks = append(blocks, blockRanges(c[0], c[1], engineWidth(c[1]-c[0], 1, w.block))...)
	}
	rp := &replay{
		chain:     lab.Chain,
		strat:     strat,
		scorer:    detect.NewMLDetector(lab.Chain),
		fleet:     lab.Trajectories,
		user:      top[0],
		numChaffs: sp.NumChaffs,
		horizon:   lab.Horizon,
		seed:      sp.Seed,
		blocks:    blocks,
	}
	return traceReplay(rp, ref, replayPasses, m, checks)
}

// tracedCampaigns runs the fleet campaigns under the tracer and derives
// the coordinator, worker and wire metrics from their spans and events.
// It returns the shard reports of the last campaign with its merge.
func (w *fleetWorkload) tracedCampaigns(ctx context.Context, m metrics, checks *tally) (shardReports, error) {
	if len(w.timed) == 0 {
		return shardReports{}, errors.New("fleet: the traced run has no timed transports")
	}
	var selfS, idle []float64
	var total eventCounts
	var last shardReports
	roots := map[int]bool{}
	for k := 1; k <= tracedFleetCampaigns; k++ {
		for _, t := range w.timed {
			t.reps = nil
		}
		rootID := w.tr.begin("fleet.campaign", -1)
		roots[rootID] = true
		w.campaignRoot = rootID
		rep, err := w.campaign(ctx, k)
		w.tr.end(rootID)
		w.campaignRoot = -1
		checks.record(err == nil && w.matchesRunJob(ctx, k, rep))
		if err != nil {
			return last, fmt.Errorf("traced campaign %d: %w", k, err)
		}
		spans := w.tr.snapshot()
		root := spans[rootID]
		byWorker := map[string][]int{}
		var all []int
		for i, s := range spans {
			if s.Parent == rootID {
				byWorker[s.Name] = append(byWorker[s.Name], i)
				all = append(all, i)
			}
		}
		selfS = append(selfS, (root.dur() - covered(root, spans, all)).Seconds())
		for _, t := range w.timed {
			idle = append(idle, 1-covered(root, spans, byWorker[t.label]).Seconds()/root.dur().Seconds())
		}
		total.dispatches += w.counts.dispatches
		total.results += w.counts.results
		total.speculative += w.counts.speculative
		total.failures += w.counts.failures
		total.banked += w.counts.banked
		total.sent += w.counts.sent
		total.received += w.counts.received
		last = shardReports{merged: rep}
		for _, t := range w.timed {
			last.parts = append(last.parts, t.reps...)
		}
	}
	n := float64(tracedFleetCampaigns)
	m.set("coordinator.self_s", median(selfS))
	m.set("coordinator.worker_idle_share", median(idle))
	m.set("coordinator.dispatches", float64(total.dispatches)/n)
	m.set("coordinator.results", float64(total.results)/n)
	m.set("coordinator.speculative", float64(total.speculative)/n)
	m.set("coordinator.failures", float64(total.failures)/n)
	m.set("coordinator.banked", float64(total.banked)/n)
	m.set("wire.bytes_sent", float64(total.sent)/n)
	m.set("wire.bytes_received", float64(total.received)/n)

	shard, overhead := w.dispatchTimes(w.tr.snapshot(), roots)
	m.set("worker.shard_s.p50", percentile(shard, 0.5).Value)
	m.set("wire.overhead_s.p50", percentile(overhead, 0.5).Value)
	return last, nil
}

// dispatchTimes pairs each worker's client spans under the traced
// campaign roots with its handler spans in start order (one connection
// per worker serves its dispatches in turn) and returns the handler
// durations and the client-minus-handler wire overheads. Handler spans
// are roots, so those opened before the first traced campaign — the
// warm-up's — are left out by their place in the list.
func (w *fleetWorkload) dispatchTimes(spans []span, roots map[int]bool) (shard, overhead []float64) {
	first := len(spans)
	for id := range roots {
		first = min(first, id)
	}
	for i := range w.timed {
		var client, handler []span
		for id, s := range spans {
			switch {
			case s.Name == "dispatch/"+strconv.Itoa(i) && roots[s.Parent]:
				client = append(client, s)
			case s.Name == "handler/"+strconv.Itoa(i) && id > first:
				handler = append(handler, s)
			}
		}
		sort.Slice(client, func(a, b int) bool { return client[a].Start < client[b].Start })
		sort.Slice(handler, func(a, b int) bool { return handler[a].Start < handler[b].Start })
		for j := 0; j < len(client) && j < len(handler); j++ {
			shard = append(shard, handler[j].dur().Seconds())
			overhead = append(overhead, (client[j].dur() - handler[j].dur()).Seconds())
		}
	}
	return shard, overhead
}

// shardReports is one fleet campaign's shard reports and its merge.
type shardReports struct {
	parts  []*chaffmec.Report
	merged *chaffmec.Report
}

// reportProbe passes the shard reports through WriteReportsEncoded,
// ReadReports and MergeReports, and the encoded envelope through the
// artifact store, checking the merge against the campaign's.
func (w *fleetWorkload) reportProbe(sr shardReports, m metrics, checks *tally) error {
	// Speculative duplicates are bit-identical; keep one per shard.
	seen := map[int]bool{}
	var parts []*chaffmec.Report
	for _, p := range sr.parts {
		if !seen[p.RunStart] {
			seen[p.RunStart] = true
			parts = append(parts, p)
		}
	}
	sort.Slice(parts, func(a, b int) bool { return parts[a].RunStart < parts[b].RunStart })
	want, err := canonical(sr.merged)
	if err != nil {
		return err
	}
	st, err := chaffmec.OpenStore(filepath.Join(w.dir, "probe-store"))
	if err != nil {
		return err
	}
	path := filepath.Join(w.dir, "shards.cmr")
	var enc, dec, merge, put, get []float64
	var size int
	for i := 0; i < probePasses; i++ {
		t0 := time.Now()
		if err := chaffmec.WriteReportsEncoded(path, parts, chaffmec.EncodingBinaryGzip); err != nil {
			return err
		}
		t1 := time.Now()
		back, err := chaffmec.ReadReports(path)
		if err != nil {
			return err
		}
		t2 := time.Now()
		merged, err := chaffmec.MergeReports(back...)
		if err != nil {
			return err
		}
		t3 := time.Now()
		got, err := canonical(merged)
		checks.record(err == nil && string(got) == string(want))

		blob, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		size = len(blob)
		key := "shards-" + strconv.Itoa(i)
		t4 := time.Now()
		if err := st.Put("perfbench", key, blob); err != nil {
			return err
		}
		t5 := time.Now()
		view, release, ok, err := st.GetMapped("perfbench", key)
		t6 := time.Now()
		if err != nil || !ok {
			return fmt.Errorf("store: reading back %s: ok=%v err=%v", key, ok, err)
		}
		checks.record(string(view) == string(blob))
		release()
		enc = append(enc, us(t1.Sub(t0)))
		dec = append(dec, us(t2.Sub(t1)))
		merge = append(merge, us(t3.Sub(t2)))
		put = append(put, us(t5.Sub(t4)))
		get = append(get, us(t6.Sub(t5)))
	}
	m.set("report.encode_us", median(enc))
	m.set("report.decode_us", median(dec))
	m.set("report.merge_us", median(merge))
	m.set("report.bytes", float64(size))
	m.set("store.put_us", median(put))
	m.set("store.get_us", median(get))
	return nil
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// appendSpans concatenates two span lists, re-pointing b's parents.
func appendSpans(a, b []span) []span {
	out := append([]span(nil), a...)
	for _, s := range b {
		if s.Parent >= 0 {
			s.Parent += len(a)
		}
		out = append(out, s)
	}
	return out
}
