package scenario

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"chaffmec/internal/engine"
	"chaffmec/internal/report"
)

// The trace pins fix the trace kind's output at the fleet-trace shape:
// the 174-node synthetic fleet of model seed 12 (154 active nodes over
// 1203 cells), T=100, 300 runs. They hold exact bits, so any rewrite of
// how the fixed fleet is scored against each run's chaffs (its
// accumulation order, tie rule or all-impossible fallback) must
// reproduce them unedited.

// traceSnapshotDigest is an FNV digest of a tracking snapshot: its shape
// and every node's start, count and the float64 bits of its means and
// second moments.
func traceSnapshotDigest(s engine.SeriesSnapshot) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	word(uint64(s.T))
	word(uint64(s.Next))
	for _, n := range s.Nodes {
		word(uint64(n.Start))
		word(uint64(n.N))
		for _, v := range n.Mean {
			word(math.Float64bits(v))
		}
		for _, v := range n.M2 {
			word(math.Float64bits(v))
		}
	}
	return h.Sum64()
}

// TestTracePinnedBits pins the tracking snapshot of a 300-run trace job
// for each chaff shape the ML eavesdropper meets: one MO chaff, three IM
// chaffs (drawn from the run streams), two ML chaffs (identical, so they
// tie each other), no chaff, and MO protecting the fourth most tracked
// user instead of the first. MO's digest equals the chaff-free one: at
// this user the fleet's best prefix always beats MO's chaff, so the
// chaff never enters a tie set.
func TestTracePinnedBits(t *testing.T) {
	base := Spec{Kind: "trace", Nodes: 174, ModelSeed: 12, Horizon: 100, Runs: 300, Seed: 2017, Workers: 2}
	cases := []struct {
		name      string
		strategy  string
		chaffs    int
		traceUser int
		want      uint64
	}{
		{"MO", "MO", 1, 0, 0xeef277027b827b96},
		{"IM3", "IM", 3, 0, 0xef99f6f40e298ca6},
		{"ML2", "ML", 2, 0, 0x3665b903e03b866e},
		{"chaff-free", "", 0, 0, 0xeef277027b827b96},
		{"MO-user3", "MO", 1, 3, 0xa4468b0850d25f96},
	}
	for _, c := range cases {
		sp := base
		sp.Strategy, sp.NumChaffs, sp.TraceUser = c.strategy, c.chaffs, c.traceUser
		rep, err := runTrace(context.Background(), sp, engine.Shard{})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		snap := rep.Series[report.SeriesTracking]
		if snap.T != 100 || snap.Next != 300 {
			t.Fatalf("%s: snapshot covers T=%d, %d runs; want 100, 300", c.name, snap.T, snap.Next)
		}
		if got := traceSnapshotDigest(snap); got != c.want {
			t.Errorf("%s: tracking digest %#x, want %#x", c.name, got, c.want)
		}
	}
}
