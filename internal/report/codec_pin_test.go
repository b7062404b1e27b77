package report

import (
	"bytes"
	"encoding/json"
	"hash/fnv"
	"math"
	"testing"

	"chaffmec/internal/engine"
	"chaffmec/internal/rng"
)

// pinnedEnvelope is a fixed two-report envelope shaped like a trace
// shard's: a 100-slot tracking series over runs [3, 250) (a spine of
// several dyadic nodes), a second series, a scalar, and an empty report.
func pinnedEnvelope(t *testing.T) []*Report {
	t.Helper()
	const T = 100
	track := engine.NewSeriesStatsAt(T, 3)
	aux := engine.NewSeriesStatsAt(T, 3)
	sq := engine.NewScalarStatsAt(3)
	x := make([]float64, T)
	for r := 3; r < 250; r++ {
		for s := range x {
			x[s] = math.Sin(float64(r*T+s)) / float64(1+s)
		}
		if err := track.Add(x); err != nil {
			t.Fatal(err)
		}
		for s := range x {
			x[s] = float64((r*s)%7) / 7
		}
		if err := aux.Add(x); err != nil {
			t.Fatal(err)
		}
		sq.Add(math.Sqrt(float64(r)))
	}
	full := &Report{
		Name: "pinned", Kind: "trace", Seed: -17, Horizon: T,
		TotalRuns: 1000, RunStart: 3, RunCount: 247,
		Stream:    rng.StreamVersion,
		ElapsedMS: 12.25,
		Spec:      json.RawMessage(`{"kind":"trace","strategy":"MO","num_chaffs":1}`),
		Series: map[string]engine.SeriesSnapshot{
			SeriesTracking: track.Snapshot(),
			"aux":          aux.Snapshot(),
		},
		Scalars: map[string]engine.ScalarSnapshot{"sqrt": sq.Snapshot()},
	}
	empty := &Report{Name: "pinned", Kind: "trace", Horizon: T, TotalRuns: 1000, RunStart: 250, Stream: rng.StreamVersion}
	return []*Report{full, empty}
}

// TestBinaryEncodingPinnedBytes pins the bytes WriteReportsBinary
// writes for a fixed envelope, raw and gzip-framed (at gzipLevel, with
// this Go release's compress/flate): an FNV-64a digest and the length of
// each.
func TestBinaryEncodingPinnedBytes(t *testing.T) {
	reps := pinnedEnvelope(t)
	for _, tc := range []struct {
		compress bool
		size     int
		digest   uint64
	}{
		{false, 35605, 0xf31d194fd81c5397},
		{true, 17526, 0xd5f29ba4bac92e5f},
	} {
		var buf bytes.Buffer
		if err := WriteReportsBinary(&buf, reps, tc.compress); err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		h.Write(buf.Bytes())
		if buf.Len() != tc.size || h.Sum64() != tc.digest {
			t.Errorf("compress=%v: %d bytes, digest %#x; want %d bytes, digest %#x", tc.compress, buf.Len(), h.Sum64(), tc.size, tc.digest)
		}
	}
}
