package report

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"math"
	"sync"
	"testing"

	"chaffmec/internal/engine"
)

// jsonWire renders reports exactly as Write does — the byte-identity
// reference every codec test compares against.
func jsonWire(t testing.TB, reps []*Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, reps); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// binaryRoundTrip encodes reps through the binary codec (optionally
// gzip-framed) and decodes them back via the auto-detecting reader.
func binaryRoundTrip(t *testing.T, reps []*Report, compress bool) []*Report {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteReportsBinary(&buf, reps, compress); err != nil {
		t.Fatal(err)
	}
	back, err := ReadReports(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(reps) {
		t.Fatalf("%d reports decoded, want %d", len(back), len(reps))
	}
	return back
}

// TestBinaryRoundTripByteIdentical is the codec's hard guarantee:
// binary→decode→JSON is byte-identical to the JSON the producer would
// have written — exact float64 bits, exact field layout.
func TestBinaryRoundTripByteIdentical(t *testing.T) {
	reps := []*Report{buildPart(t, 0, 13, 29), buildPart(t, 13, 29, 29)}
	want := jsonWire(t, reps)
	for _, compress := range []bool{false, true} {
		back := binaryRoundTrip(t, reps, compress)
		if got := jsonWire(t, back); !bytes.Equal(got, want) {
			t.Fatalf("compress=%v: binary round trip changed the JSON wire:\n got %s\nwant %s", compress, got, want)
		}
	}
}

// TestBinaryRoundTripEdgeShapes covers the envelope shapes the paper
// protocol doesn't produce: no spec, no scalars, an empty shard [s,s),
// an empty report list, and non-finite / subnormal float bits.
func TestBinaryRoundTripEdgeShapes(t *testing.T) {
	lean := buildPart(t, 0, 7, 7)
	lean.Spec = nil
	lean.Scalars = nil

	empty := buildPart(t, 4, 4, 9) // zero-run shard: empty spines

	odd := buildPart(t, 0, 2, 2)
	track := engine.NewSeriesStatsAt(2, 0)
	for _, x := range [][]float64{{1e-310, math.Copysign(0, -1)}, {1e150, 5e-324}} {
		if err := track.Add(x); err != nil {
			t.Fatal(err)
		}
	}
	odd.Series[SeriesTracking] = track.Snapshot()

	for _, reps := range [][]*Report{{lean}, {empty}, {odd}, {}} {
		want := jsonWire(t, reps)
		back := binaryRoundTrip(t, reps, false)
		if got := jsonWire(t, back); !bytes.Equal(got, want) {
			t.Fatalf("binary round trip changed the JSON wire:\n got %s\nwant %s", got, want)
		}
	}
}

// TestBinaryMergeEquivalence pins the property the coordinator's
// bit-for-bit guarantee rides on: shards that crossed the wire in
// binary merge into exactly the report the JSON path produces.
func TestBinaryMergeEquivalence(t *testing.T) {
	const total = 29
	whole := buildPart(t, 0, total, total)
	parts := []*Report{buildPart(t, 0, 7, total), buildPart(t, 7, 8, total), buildPart(t, 8, total, total)}

	viaJSON, err := Merge(parts...)
	if err != nil {
		t.Fatal(err)
	}
	decoded := binaryRoundTrip(t, parts, true)
	viaBinary, err := Merge(decoded...)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(viaJSON)
	b, _ := json.Marshal(viaBinary)
	if !bytes.Equal(a, b) {
		t.Fatalf("merge of binary-shipped shards differs from JSON path:\n%s\n%s", b, a)
	}
	viaBinary.ElapsedMS = whole.ElapsedMS
	w, _ := json.Marshal(whole)
	if m, _ := json.Marshal(viaBinary); !bytes.Equal(m, w) {
		t.Fatalf("merged binary shards differ from whole run:\n%s\n%s", m, w)
	}

	// Extend (the adaptive-round path) through a binary round trip.
	acc := binaryRoundTrip(t, []*Report{buildPart(t, 0, 9, 64)}, false)[0]
	next := binaryRoundTrip(t, []*Report{buildPart(t, 9, total, 64)}, true)[0]
	if err := acc.Extend(next); err != nil {
		t.Fatal(err)
	}
	acc.TotalRuns = total
	acc.ElapsedMS = whole.ElapsedMS
	if e, _ := json.Marshal(acc); !bytes.Equal(e, w) {
		t.Fatalf("extend over binary-shipped rounds differs from whole:\n%s\n%s", e, w)
	}
}

// TestReadReportsAutoDetect feeds the same envelopes through every wire
// format and a single reader.
func TestReadReportsAutoDetect(t *testing.T) {
	reps := []*Report{buildPart(t, 0, 5, 5)}
	want := jsonWire(t, reps)
	for _, enc := range []Encoding{EncodingJSON, EncodingBinary, EncodingBinaryGzip} {
		var buf bytes.Buffer
		if err := WriteEncoded(&buf, reps, enc); err != nil {
			t.Fatal(err)
		}
		back, err := ReadReports(&buf)
		if err != nil {
			t.Fatalf("%s: %v", enc, err)
		}
		if got := jsonWire(t, back); !bytes.Equal(got, want) {
			t.Fatalf("%s: decoded envelope differs", enc)
		}
	}
	if err := WriteEncoded(&bytes.Buffer{}, reps, Encoding("protobuf")); err == nil {
		t.Fatal("unknown encoding accepted")
	}
}

// TestFileEncodedRoundTrip: ReadFile auto-detects every on-disk format.
func TestFileEncodedRoundTrip(t *testing.T) {
	dir := t.TempDir()
	reps := []*Report{buildPart(t, 0, 3, 6), buildPart(t, 3, 6, 6)}
	want := jsonWire(t, reps)
	for _, enc := range []Encoding{EncodingJSON, EncodingBinary, EncodingBinaryGzip} {
		path := dir + "/parts-" + string(enc)
		if err := WriteFileEncoded(path, reps, enc); err != nil {
			t.Fatal(err)
		}
		back, err := ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", enc, err)
		}
		if got := jsonWire(t, back); !bytes.Equal(got, want) {
			t.Fatalf("%s: file round trip differs", enc)
		}
	}
}

// TestBinaryCompactness: the binary wire must be far smaller than the
// indented JSON (scenario's TestPaperProtocolReportCodecs asserts the
// ≥5× bound on the real paper protocol; this is the unit-level sanity
// floor).
func TestBinaryCompactness(t *testing.T) {
	reps := []*Report{buildPart(t, 0, 200, 200)}
	jsonLen := len(jsonWire(t, reps))
	var bin, gz bytes.Buffer
	if err := WriteReportsBinary(&bin, reps, false); err != nil {
		t.Fatal(err)
	}
	if err := WriteReportsBinary(&gz, reps, true); err != nil {
		t.Fatal(err)
	}
	if bin.Len()*2 >= jsonLen {
		t.Fatalf("binary %dB not even 2x under JSON %dB", bin.Len(), jsonLen)
	}
	if gz.Len() >= jsonLen {
		t.Fatalf("gzip framing grew the wire: %dB vs JSON %dB", gz.Len(), jsonLen)
	}
}

// TestBinaryDecodeCorruption: damaged streams must fail loudly, never
// decode to a plausible-but-wrong envelope.
func TestBinaryDecodeCorruption(t *testing.T) {
	reps := []*Report{buildPart(t, 0, 9, 9)}
	var buf bytes.Buffer
	if err := WriteReportsBinary(&buf, reps, false); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()

	for _, cut := range []int{5, len(whole) / 2, len(whole) - 1} {
		if _, err := ReadReports(bytes.NewReader(whole[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// An absurd count field must be bounded, not allocated.
	huge := append([]byte{}, whole[:4]...)
	huge = append(huge, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01)
	if _, err := ReadReports(bytes.NewReader(huge)); err == nil {
		t.Fatal("absurd report count accepted")
	}
	// A truncated gzip frame must surface the damage.
	var gz bytes.Buffer
	if err := WriteReportsBinary(&gz, reps, true); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadReports(bytes.NewReader(gz.Bytes()[:gz.Len()-4])); err == nil {
		t.Fatal("truncated gzip frame accepted")
	}
	// Garbage that is neither magic nor JSON fails as JSON.
	if _, err := ReadReports(bytes.NewReader([]byte("CMXXnope"))); err == nil {
		t.Fatal("garbage accepted")
	}
}

// TestBinaryEncodeRejectsBrokenSpine: the delta encoding represents only
// contiguous spines (all SeriesFromSnapshot-valid snapshots are); a
// hand-built snapshot with a gap must be rejected at encode time rather
// than silently re-based at decode time.
func TestBinaryEncodeRejectsBrokenSpine(t *testing.T) {
	rep := buildPart(t, 0, 5, 5) // 5 runs: a 2-node spine [0,4)+[4,5)
	snap := rep.Series[SeriesTracking]
	if len(snap.Nodes) < 2 {
		t.Fatal("need a multi-node spine to corrupt")
	}
	nodes := append([]engine.StatNode(nil), snap.Nodes...)
	nodes[len(nodes)-1].Start += 3
	snap.Nodes = nodes
	rep.Series[SeriesTracking] = snap
	if err := WriteReportsBinary(&bytes.Buffer{}, []*Report{rep}, false); err == nil {
		t.Fatal("non-contiguous spine encoded")
	}
}

// gzipCorpus is the codec tests' envelope corpus: shards of one job,
// the edge shapes (no spec or scalars, an empty shard, odd float bits)
// and an empty report list.
func gzipCorpus(t testing.TB) [][]*Report {
	lean := buildPart(t, 0, 7, 7)
	lean.Spec = nil
	lean.Scalars = nil
	odd := buildPart(t, 0, 2, 2)
	track := engine.NewSeriesStatsAt(2, 0)
	for _, x := range [][]float64{{1e-310, math.Copysign(0, -1)}, {1e150, 5e-324}} {
		if err := track.Add(x); err != nil {
			t.Fatal(err)
		}
	}
	odd.Series[SeriesTracking] = track.Snapshot()
	return [][]*Report{
		{buildPart(t, 0, 13, 29), buildPart(t, 13, 29, 29)},
		{buildPart(t, 0, 7, 29)}, {lean}, {buildPart(t, 4, 4, 9)}, {odd}, {},
	}
}

// freshGzipEncode frames reps through a gzip writer of its own at the
// codec's level, the reference the pooled writers must reproduce byte
// for byte.
func freshGzipEncode(t testing.TB, reps []*Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	gz, err := gzip.NewWriterLevel(&buf, gzipLevel)
	if err != nil {
		t.Fatal(err)
	}
	if err := encodeBinaryGzip(gz, reps); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPooledGzipMatchesFreshWriter: a pooled, reused gzip writer frames
// every corpus envelope into exactly the bytes a fresh writer does,
// whatever it framed before (each envelope is encoded three times,
// interleaved with the others).
func TestPooledGzipMatchesFreshWriter(t *testing.T) {
	corpus := gzipCorpus(t)
	for round := 0; round < 3; round++ {
		for i, reps := range corpus {
			var buf bytes.Buffer
			if err := WriteReportsBinary(&buf, reps, true); err != nil {
				t.Fatal(err)
			}
			if want := freshGzipEncode(t, reps); !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("round %d, envelope %d: pooled gzip frame differs from a fresh writer's", round, i)
			}
		}
	}
}

// TestConcurrentGzipEncode encodes the corpus from many goroutines at
// once through the shared pool (run it under -race): every frame must
// equal a fresh writer's.
func TestConcurrentGzipEncode(t *testing.T) {
	corpus := gzipCorpus(t)
	want := make([][]byte, len(corpus))
	for i, reps := range corpus {
		want[i] = freshGzipEncode(t, reps)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				i := (g + k) % len(corpus)
				var buf bytes.Buffer
				if err := WriteReportsBinary(&buf, corpus[i], true); err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(buf.Bytes(), want[i]) {
					t.Errorf("goroutine %d: envelope %d framed differently", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
