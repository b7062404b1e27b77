package main

import (
	"testing"
	"time"
)

// spansOf builds spans from (name, start, end, parent) in microseconds.
func spansOf(rows ...[4]any) []span {
	out := make([]span, len(rows))
	for i, r := range rows {
		out[i] = span{
			Name:   r[0].(string),
			Start:  time.Duration(r[1].(int)) * time.Microsecond,
			End:    time.Duration(r[2].(int)) * time.Microsecond,
			Parent: r[3].(int),
		}
	}
	return out
}

func TestSelfTimeExcludesNestedGamma(t *testing.T) {
	// campaign [0,100): generate [0,10), score [10,90) with two Γ calls
	// inside it [20,30) and [50,70), accumulate [90,95).
	spans := spansOf(
		[4]any{"campaign", 0, 100, -1},
		[4]any{"chaff.generate", 0, 10, 0},
		[4]any{"detect.score", 10, 90, 0},
		[4]any{"chaff.gamma", 20, 30, 2},
		[4]any{"chaff.gamma", 50, 70, 2},
		[4]any{"engine.accumulate", 90, 95, 0},
	)
	self := selfTimes(spans)
	want := []time.Duration{5, 10, 50, 10, 20, 5}
	for i, w := range want {
		if self[i] != w*time.Microsecond {
			t.Errorf("self[%s] = %v, want %v", spans[i].Name, self[i], w*time.Microsecond)
		}
	}
	layers, unattributed, wall := attribution(spans, 0)
	if unattributed != 5*time.Microsecond || wall != 100*time.Microsecond {
		t.Errorf("unattributed %v of wall %v, want 5µs of 100µs", unattributed, wall)
	}
	if g := layers["chaff.gamma"]; g.Count != 2 || g.Self != 30*time.Microsecond {
		t.Errorf("gamma = %+v, want 2 calls, 30µs", g)
	}
	if s := layers["detect.score"]; s.Self != 50*time.Microsecond || s.Count != 1 {
		t.Errorf("score = %+v, want one span with 50µs self", s)
	}
	if gap := attributionGap(layers, unattributed, wall); gap != 0 {
		t.Errorf("layers plus unattributed miss the wall by %v", gap)
	}
}

func TestSelfTimeCountsOverlapOnceAndClipsToParent(t *testing.T) {
	spans := spansOf(
		[4]any{"root", 10, 50, -1},
		[4]any{"a", 0, 20, 0},  // starts before the parent: 10µs inside
		[4]any{"b", 15, 30, 0}, // overlaps a
		[4]any{"c", 40, 60, 0}, // ends after the parent: 10µs inside
	)
	if got := selfTimes(spans)[0]; got != 10*time.Microsecond {
		t.Errorf("root self = %v, want 10µs (covered [10,30) and [40,50))", got)
	}
}

func TestAttributionGapFlagsOverlappingSiblings(t *testing.T) {
	spans := spansOf(
		[4]any{"root", 0, 10, -1},
		[4]any{"x", 0, 8, 0},
		[4]any{"y", 2, 10, 0}, // runs alongside x: self times double count
	)
	layers, unattributed, wall := attribution(spans, 0)
	if attributionGap(layers, unattributed, wall) == 0 {
		t.Error("concurrent siblings passed the attribution check")
	}
}

func TestDispatchTimesSkipTheWarmUp(t *testing.T) {
	// The warm-up's dispatch is a root span and its handler span comes
	// before the first traced campaign; neither may pair with the traced
	// campaign's dispatch.
	spans := spansOf(
		[4]any{"handler/0", 1, 9, -1},
		[4]any{"dispatch/0", 0, 10, -1},
		[4]any{"fleet.campaign", 20, 60, -1},
		[4]any{"dispatch/0", 20, 50, 2},
		[4]any{"handler/0", 22, 46, -1},
	)
	w := &fleetWorkload{timed: make([]*timedTransport, 1)}
	shard, overhead := w.dispatchTimes(spans, map[int]bool{2: true})
	if len(shard) != 1 || shard[0] != 24e-6 || overhead[0] != 6e-6 {
		t.Errorf("shard %v, overhead %v, want [2.4e-05] and [6e-06]", shard, overhead)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", -1)
	tr.end(id)
	if id != -1 {
		t.Errorf("nil tracer returned span id %d", id)
	}
	live := newTracer()
	root := live.begin("root", -1)
	child := live.begin("child", root)
	live.end(child)
	live.end(root)
	got := live.snapshot()
	if len(got) != 2 || got[1].Parent != root || got[0].End < got[1].End {
		t.Errorf("spans = %+v", got)
	}
}
