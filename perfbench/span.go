package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer: its name, its interval as
// offsets from the tracer's origin, and the span that caused it (-1 for
// a root).
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced and traced passes run the same code. It is
// safe for concurrent use: the fleet's client and handler spans come
// from different goroutines.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span under parent and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: now, Parent: parent})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Overlapping children count
// once, and a child's time outside its parent does not count.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(s, spans, children[i])
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, spans []span, kids []int) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(spans[k].Start, parent.Start), min(spans[k].End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curLo, curHi time.Duration
	open := false
	for _, v := range iv {
		switch {
		case !open:
			curLo, curHi, open = v[0], v[1], true
		case v[0] <= curHi:
			curHi = max(curHi, v[1])
		default:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// layerTotal is one span name's self time and span count over a subtree.
type layerTotal struct {
	Self  time.Duration
	Count int
}

// attribution sums self time by span name over the subtree under root
// (root excluded) and returns it with the root's own self time — the
// time no layer span claims — and the root's duration.
func attribution(spans []span, root int) (layers map[string]layerTotal, unattributed, wall time.Duration) {
	self := selfTimes(spans)
	layers = map[string]layerTotal{}
	for i, s := range spans {
		if i == root || !under(spans, i, root) {
			continue
		}
		l := layers[s.Name]
		l.Self += self[i]
		l.Count++
		layers[s.Name] = l
	}
	return layers, self[root], spans[root].dur()
}

// under reports whether span i descends from root.
func under(spans []span, i, root int) bool {
	for p := spans[i].Parent; p >= 0; p = spans[p].Parent {
		if p == root {
			return true
		}
	}
	return false
}

// attributionGap is how far the layers' self times plus the unattributed
// time miss the wall: zero when the subtree's spans nest without
// overlapping, so every nanosecond of the wall is claimed exactly once.
func attributionGap(layers map[string]layerTotal, unattributed, wall time.Duration) time.Duration {
	sum := unattributed
	for _, l := range layers {
		sum += l.Self
	}
	gap := sum - wall
	if gap < 0 {
		gap = -gap
	}
	return gap
}

// writeSpans writes the spans as JSON lines, one object per span with
// its id.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, s := range spans {
		if err := enc.Encode(struct {
			ID int `json:"id"`
			span
		}{i, s}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
