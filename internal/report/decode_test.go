package report

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"io"
	"math"
	"runtime"
	"testing"

	"chaffmec/internal/engine"
)

// decodeCorpus builds the envelope shapes the codec tests exercise:
// multi-report shards, a spec-less scalar-less report, an empty shard,
// non-finite/subnormal float bits, and the empty list.
func decodeCorpus(t testing.TB) [][]*Report {
	t.Helper()
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
		{lean},
		{buildPart(t, 4, 4, 9)},
		{odd},
		{},
	}
}

// TestDecodeReportsMatchesReadReports is the zero-copy decoder's hard
// guarantee: over the full codec corpus and every wire encoding, both
// DecodeReports and ReadReports reproduce the source reports' canonical
// JSON wire — DecodeReports at the blob's natural alignment AND with the
// blob shifted one byte, which flips every float block between the
// aliasing and the copying path.
func TestDecodeReportsMatchesReadReports(t *testing.T) {
	for _, reps := range decodeCorpus(t) {
		want := jsonWire(t, reps)
		for _, enc := range []Encoding{EncodingJSON, EncodingBinary, EncodingBinaryGzip} {
			var buf bytes.Buffer
			if err := WriteEncoded(&buf, reps, enc); err != nil {
				t.Fatal(err)
			}
			blob := buf.Bytes()

			streamed, err := ReadReports(bytes.NewReader(blob))
			if err != nil {
				t.Fatalf("%s: ReadReports: %v", enc, err)
			}
			if got := jsonWire(t, streamed); !bytes.Equal(got, want) {
				t.Fatalf("%s: ReadReports changed the JSON wire", enc)
			}

			shifted := make([]byte, len(blob)+1)
			copy(shifted[1:], blob)
			for name, data := range map[string][]byte{"aligned": blob, "shifted": shifted[1:]} {
				decoded, err := DecodeReports(data)
				if err != nil {
					t.Fatalf("%s/%s: DecodeReports: %v", enc, name, err)
				}
				if len(decoded) != len(reps) {
					t.Fatalf("%s/%s: %d reports decoded, want %d", enc, name, len(decoded), len(reps))
				}
				if got := jsonWire(t, decoded); !bytes.Equal(got, want) {
					t.Fatalf("%s/%s: zero-copy decode changed the JSON wire:\n got %s\nwant %s", enc, name, got, want)
				}
			}
		}
	}
}

// TestDecodeReportsCorruption: every damaged blob is rejected through
// both entry points — never decoded to a plausible-but-wrong envelope,
// never a panic on truncation.
func TestDecodeReportsCorruption(t *testing.T) {
	reps := []*Report{buildPart(t, 0, 9, 9)}
	var buf bytes.Buffer
	if err := WriteReportsBinary(&buf, reps, false); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()

	for _, cut := range []int{0, 1, 3, 5, len(whole) / 2, len(whole) - 1} {
		if _, serr := ReadReports(bytes.NewReader(whole[:cut])); serr == nil {
			t.Fatalf("ReadReports accepted truncation at %d", cut)
		}
		if _, err := DecodeReports(whole[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// An absurd count field must be bounded, not allocated.
	huge := append([]byte{}, whole[:4]...)
	huge = append(huge, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01)
	if _, err := DecodeReports(huge); err == nil {
		t.Fatal("absurd report count accepted")
	}
	// A truncated gzip frame must surface the damage.
	var gz bytes.Buffer
	if err := WriteReportsBinary(&gz, reps, true); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeReports(gz.Bytes()[:gz.Len()-4]); err == nil {
		t.Fatal("truncated gzip frame accepted")
	}
	// Garbage that is neither magic nor JSON fails as JSON.
	if _, err := DecodeReports([]byte("CMXXnope")); err == nil {
		t.Fatal("garbage accepted")
	}
}

// TestDecodeReportsMergeSafe pins the property the coordinator's
// banked-shard path relies on: reports decoded zero-copy can be merged,
// and the merged report owns all of its memory — clobbering the source
// blob afterwards must not perturb a single merged bit.
func TestDecodeReportsMergeSafe(t *testing.T) {
	const total = 29
	parts := []*Report{buildPart(t, 0, 13, total), buildPart(t, 13, total, total)}
	var buf bytes.Buffer
	if err := WriteReportsBinary(&buf, parts, false); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()

	want, err := Merge(parts...)
	if err != nil {
		t.Fatal(err)
	}
	wantWire := jsonWire(t, []*Report{want})

	decoded, err := DecodeReports(blob)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := Merge(decoded...)
	if err != nil {
		t.Fatal(err)
	}
	for i := range blob { // simulate the mapping being released/reused
		blob[i] = 0xA5
	}
	if got := jsonWire(t, []*Report{merged}); !bytes.Equal(got, wantWire) {
		t.Fatalf("merge of zero-copy decoded shards leaked aliased memory:\n got %s\nwant %s", got, wantWire)
	}
}

// inflatedEnvelopes are two well-formed CMR1 prefixes whose counts
// announce far more items than the bytes that follow: one report
// holding one T=0 series with 2²⁸−1 spine nodes (30 bytes), and one
// report announcing 2²⁸−1 series (27 bytes). Both counts sit at
// maxDecodeLen−1, so only a check against the actual input can refuse
// them before the allocation they ask for.
func inflatedEnvelopes() map[string][]byte {
	header := []byte{'C', 'M', 'R', '1',
		1,       // report count
		0, 0, 0, // name, kind, stream
		0, 0, 0, 0, 0, // seed, horizon, total_runs, run_start, run_count
		0, 0, 0, 0, 0, 0, 0, 0, // elapsed_ms
		0, // spec
	}
	maxCount := []byte{0xff, 0xff, 0xff, 0x7f}               // uvarint 2²⁸−1
	nodes := append(append([]byte{}, header...), 1, 0, 0, 0) // one series: name "", T=0, next=0
	nodes = append(nodes, maxCount...)
	series := append(append([]byte{}, header...), maxCount...)
	series = append(series, 0) // the first series' empty name
	return map[string][]byte{"nodes": nodes, "series": series}
}

// decoders names both decoding entry points by a common signature.
var decoders = map[string]func([]byte) ([]*Report, error){
	"DecodeReports": DecodeReports,
	"ReadReports": func(b []byte) ([]*Report, error) {
		return ReadReports(bytes.NewReader(b))
	},
}

// decodeMeasured runs one decoder over data and reports the bytes it
// allocated.
func decodeMeasured(decode func([]byte) ([]*Report, error), data []byte) ([]*Report, uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	reps, err := decode(data)
	runtime.ReadMemStats(&after)
	return reps, after.TotalAlloc - before.TotalAlloc, err
}

// TestDecodersRejectInflatedCounts feeds both inflated envelopes, raw
// and gzip-framed, to both entry points: each must return an error without
// allocating ahead of the input.
func TestDecodersRejectInflatedCounts(t *testing.T) {
	for name, raw := range inflatedEnvelopes() {
		var gz bytes.Buffer
		w := gzip.NewWriter(&gz)
		if _, err := w.Write(raw); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		for frame, data := range map[string][]byte{"raw": raw, "gzip": gz.Bytes()} {
			for dec, decode := range decoders {
				_, alloc, err := decodeMeasured(decode, data)
				if err == nil {
					t.Fatalf("%s/%s/%s: inflated envelope accepted", name, frame, dec)
				}
				if alloc > 4<<20 {
					t.Fatalf("%s/%s/%s: allocated %d bytes for a %d-byte input", name, frame, dec, alloc, len(data))
				}
			}
		}
	}
}

// TestDecodeRefusesOversizedFrame: a gzip frame inflating past
// maxDecodeLen is refused through both entry points, even when a valid
// envelope precedes the excess — a small frame of trailing zeros must
// not make a reader buffer gigabytes.
func TestDecodeRefusesOversizedFrame(t *testing.T) {
	if testing.Short() {
		t.Skip("inflates a frame past the 256 MiB decode limit")
	}
	var env bytes.Buffer
	if err := WriteReportsBinary(&env, []*Report{buildPart(t, 0, 5, 5)}, false); err != nil {
		t.Fatal(err)
	}
	var frame bytes.Buffer
	w, err := gzip.NewWriterLevel(&frame, gzip.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(env.Bytes()); err != nil {
		t.Fatal(err)
	}
	zeros := make([]byte, 1<<20)
	for n := env.Len(); n <= maxDecodeLen; n += len(zeros) {
		if _, err := w.Write(zeros); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	for dec, decode := range decoders {
		if _, err := decode(frame.Bytes()); err == nil {
			t.Fatalf("%s accepted a %d-byte frame inflating past %d bytes", dec, frame.Len(), maxDecodeLen)
		}
	}
}

// FuzzDecodeReports feeds arbitrary bytes to both entry points: neither
// panics, and neither allocates more than a fixed multiple of the input
// (of the inflated input, for a gzip frame) plus a constant for reader
// buffers. A binary envelope DecodeReports accepts must survive a
// round trip: re-encoded with WriteReportsBinary, it decodes to the
// same JSON wire. (A JSON envelope may spell a zero-length float block
// as null, which the binary codec writes back as [], so JSON inputs are
// held to the first two properties only.) The seeds are the codec
// corpus in every encoding plus the inflated envelopes.
func FuzzDecodeReports(f *testing.F) {
	for _, reps := range decodeCorpus(f) {
		for _, enc := range []Encoding{EncodingJSON, EncodingBinary, EncodingBinaryGzip} {
			var buf bytes.Buffer
			if err := WriteEncoded(&buf, reps, enc); err != nil {
				f.Fatal(err)
			}
			f.Add(buf.Bytes())
		}
	}
	for _, raw := range inflatedEnvelopes() {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		size := len(data)
		isBinary := bytes.HasPrefix(data, binaryMagic[:])
		if gz, err := gzip.NewReader(bytes.NewReader(data)); err == nil {
			var head [4]byte
			k, _ := io.ReadFull(gz, head[:])
			n, _ := io.Copy(io.Discard, gz)
			size = max(size, k+int(n))
			isBinary = head == binaryMagic
		}
		var decoded []*Report
		accepted := false
		for dec, decode := range decoders {
			reps, alloc, err := decodeMeasured(decode, data)
			if alloc > uint64(4<<20+128*size) {
				t.Fatalf("%s allocated %d bytes for a %d-byte input", dec, alloc, size)
			}
			if dec == "DecodeReports" && err == nil {
				decoded, accepted = reps, true
			}
		}
		if !accepted || !isBinary {
			return
		}
		var bin bytes.Buffer
		if err := WriteReportsBinary(&bin, decoded, false); err != nil {
			return
		}
		back, err := DecodeReports(bin.Bytes())
		if err != nil {
			t.Fatalf("re-encoded envelope rejected: %v", err)
		}
		if a, b := wireOrErr(decoded), wireOrErr(back); !bytes.Equal(a, b) {
			t.Fatalf("binary round trip changed the JSON wire:\n got %s\nwant %s", b, a)
		}
	})
}

// wireOrErr renders reports as Write does, or names why it cannot (a
// decoded float may be NaN, a decoded spec may not be JSON).
func wireOrErr(reps []*Report) []byte {
	var wire bytes.Buffer
	if err := Write(&wire, reps); err != nil {
		return []byte("unwritable: " + err.Error())
	}
	return wire.Bytes()
}

// TestInflateTrailerIsAGuess: the gzip ISIZE trailer only sizes the
// inflate buffer. A frame of two gzip members, whose trailer counts only
// the second, decodes to the same reports; a forged trailer fails the
// frame's own length check without reserving more than maxInflateGuess
// times the frame; and the pooled reader decodes a good frame after
// either.
func TestInflateTrailerIsAGuess(t *testing.T) {
	reps := pinnedEnvelope(t)
	want := jsonWire(t, reps)
	var raw bytes.Buffer
	if err := WriteReportsBinary(&raw, reps, false); err != nil {
		t.Fatal(err)
	}
	member := func(b []byte) []byte {
		var buf bytes.Buffer
		gz := gzip.NewWriter(&buf)
		if _, err := gz.Write(b); err != nil {
			t.Fatal(err)
		}
		if err := gz.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	half := raw.Len() / 2
	twoMembers := append(member(raw.Bytes()[:half]), member(raw.Bytes()[half:])...)
	one := member(raw.Bytes())
	check := func(frame []byte) {
		t.Helper()
		back, err := DecodeReports(frame)
		if err != nil {
			t.Fatal(err)
		}
		if got := jsonWire(t, back); !bytes.Equal(got, want) {
			t.Fatal("decoded reports differ from the encoded ones")
		}
	}
	check(twoMembers)
	for _, isize := range []uint32{0, 1, math.MaxUint32} {
		forged := append([]byte(nil), one...)
		binary.LittleEndian.PutUint32(forged[len(forged)-4:], isize)
		_, alloc, err := decodeMeasured(DecodeReports, forged)
		if err == nil {
			t.Fatalf("trailer %d: a frame with a forged length decoded", isize)
		}
		if limit := uint64(maxInflateGuess*len(forged) + 4*raw.Len()); alloc > limit {
			t.Fatalf("trailer %d: %d bytes allocated for a %d-byte frame, want at most %d", isize, alloc, len(forged), limit)
		}
		check(one)
	}
}
