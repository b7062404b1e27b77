package figures

import (
	"bytes"
	"compress/gzip"
	"io"
	"reflect"
	"runtime"
	"testing"

	"chaffmec/internal/geo"
	"chaffmec/internal/markov"
)

func encodeLab(t testing.TB, lab *TraceLab) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := lab.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTraceLabCodecRoundTrip: a decoded lab must be indistinguishable
// from the built one — same chain bits, towers, trajectories, and (the
// property everything downstream rides on) a byte-identical re-encode.
func TestTraceLabCodecRoundTrip(t *testing.T) {
	lab := getLab(t)
	blob := encodeLab(t, lab)
	back, err := DecodeTraceLab(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}

	if back.Horizon != lab.Horizon || back.FilteredNodes != lab.FilteredNodes {
		t.Fatalf("header changed: horizon %d/%d filtered %d/%d",
			back.Horizon, lab.Horizon, back.FilteredNodes, lab.FilteredNodes)
	}
	if !reflect.DeepEqual(back.Nodes, lab.Nodes) {
		t.Fatal("node ids changed")
	}
	if !reflect.DeepEqual(back.Trajectories, lab.Trajectories) {
		t.Fatal("trajectories changed")
	}
	if !reflect.DeepEqual(back.Quantizer.Towers(), lab.Quantizer.Towers()) {
		t.Fatal("towers changed")
	}
	if !reflect.DeepEqual(back.Chain.Matrix(), lab.Chain.Matrix()) {
		t.Fatal("transition matrix changed")
	}
	wantPi, err := lab.Chain.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	gotPi, err := back.Chain.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotPi, wantPi) {
		t.Fatal("steady state changed")
	}
	if got := encodeLab(t, back); !bytes.Equal(got, blob) {
		t.Fatalf("re-encode not byte-identical: %d vs %d bytes", len(got), len(blob))
	}
}

// TestTraceLabCodecBehavioral: the decoded lab must drive the
// evaluation pipeline to the exact same answers as the built one.
func TestTraceLabCodecBehavioral(t *testing.T) {
	lab := getLab(t)
	back, err := DecodeTraceLab(bytes.NewReader(encodeLab(t, lab)))
	if err != nil {
		t.Fatal(err)
	}
	wantTop, wantAccs, err := lab.TopUsers(3)
	if err != nil {
		t.Fatal(err)
	}
	gotTop, gotAccs, err := back.TopUsers(3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotTop, wantTop) || !reflect.DeepEqual(gotAccs, wantAccs) {
		t.Fatal("decoded lab tracks users differently")
	}
}

// TestTraceLabCodecCorruption: damage must be detected, never decoded
// into a plausible lab.
func TestTraceLabCodecCorruption(t *testing.T) {
	lab := getLab(t)
	blob := encodeLab(t, lab)

	for _, cut := range []int{0, 1, 10, len(blob) / 2, len(blob) - 3} {
		if _, err := DecodeTraceLab(bytes.NewReader(blob[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// Flip a bit in the deflate payload: the gzip CRC must catch it.
	flipped := append([]byte(nil), blob...)
	flipped[len(flipped)/2] ^= 0x10
	if _, err := DecodeTraceLab(bytes.NewReader(flipped)); err == nil {
		t.Fatal("bit flip accepted")
	}
	if _, err := DecodeTraceLab(bytes.NewReader([]byte("not a lab"))); err == nil {
		t.Fatal("garbage accepted")
	}
}

// inflatedLab is a 35-byte CMTL1 blob whose header announces 2²⁶−1
// chain states and then ends: only a decoder that sizes its slices from
// the bytes that arrive, not from the counts it is told, refuses it
// without allocating gigabytes.
func inflatedLab(t testing.TB) []byte {
	return gzipFrame(t, []byte{'C', 'M', 'T', 'L', '1',
		1,                      // horizon
		0,                      // filtered nodes
		0xff, 0xff, 0xff, 0x1f, // state count 2²⁶−1
	})
}

func gzipFrame(t testing.TB, raw []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := gzip.NewWriter(&buf)
	if _, err := w.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDecodeTraceLabRejectsInflatedCounts: the inflated blob is refused
// with allocation bounded by a small constant.
func TestDecodeTraceLabRejectsInflatedCounts(t *testing.T) {
	blob := inflatedLab(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeTraceLab(bytes.NewReader(blob))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("inflated lab accepted")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4<<20 {
		t.Fatalf("allocated %d bytes for a %d-byte blob", alloc, len(blob))
	}
}

// smallLab is a hand-built three-state lab: small enough to fuzz from.
func smallLab(t testing.TB) *TraceLab {
	t.Helper()
	chain, err := markov.NewWithStationary(
		[][]float64{{0.5, 0.5, 0}, {0, 0.25, 0.75}, {1, 0, 0}},
		[]float64{0.5, 0.25, 0.25})
	if err != nil {
		t.Fatal(err)
	}
	q, err := geo.NewQuantizer([]geo.Point{{X: 0, Y: 0}, {X: 3, Y: 1}, {X: 1, Y: 4}})
	if err != nil {
		t.Fatal(err)
	}
	return &TraceLab{
		Nodes:        []string{"a", "node-b"},
		Trajectories: []markov.Trajectory{{0, 1, 2, 0}, {2, 2, 0}},
		Chain:        chain, Quantizer: q,
		Horizon: 4, FilteredNodes: 1,
	}
}

// FuzzDecodeTraceLab: no input panics the CMTL1 decoder, and a lab it
// accepts re-encodes and decodes to the same chain, towers and
// trajectories. Input that is not a gzip frame is framed first, so
// mutations reach the CMTL1 parser instead of dying at the gzip header.
// The seeds are an encoded small lab, its truncations, its unframed
// payload and the inflated blob.
func FuzzDecodeTraceLab(f *testing.F) {
	blob := encodeLab(f, smallLab(f))
	for _, cut := range []int{len(blob), 1, 10, len(blob) / 2, len(blob) - 3} {
		f.Add(blob[:cut])
	}
	gz, err := gzip.NewReader(bytes.NewReader(blob))
	if err != nil {
		f.Fatal(err)
	}
	raw, err := io.ReadAll(gz)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add(inflatedLab(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		if !bytes.HasPrefix(data, []byte{0x1f, 0x8b}) {
			data = gzipFrame(t, data)
		}
		lab, err := DecodeTraceLab(bytes.NewReader(data))
		if err != nil {
			return
		}
		back, err := DecodeTraceLab(bytes.NewReader(encodeLab(t, lab)))
		if err != nil {
			t.Fatalf("re-encoded lab rejected: %v", err)
		}
		if back.Horizon != lab.Horizon || back.FilteredNodes != lab.FilteredNodes ||
			!reflect.DeepEqual(back.Nodes, lab.Nodes) {
			t.Fatal("header or node ids changed")
		}
		if !reflect.DeepEqual(back.Trajectories, lab.Trajectories) {
			t.Fatal("trajectories changed")
		}
		if !reflect.DeepEqual(back.Quantizer.Towers(), lab.Quantizer.Towers()) {
			t.Fatal("towers changed")
		}
		if !reflect.DeepEqual(back.Chain.Matrix(), lab.Chain.Matrix()) {
			t.Fatal("transition matrix changed")
		}
		wantPi, _ := lab.Chain.SteadyState()
		gotPi, _ := back.Chain.SteadyState()
		if !reflect.DeepEqual(gotPi, wantPi) {
			t.Fatal("steady state changed")
		}
	})
}
