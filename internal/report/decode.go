package report

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"

	"chaffmec/internal/engine"
)

// ReadReports decodes a report envelope from r in any of the formats
// this package writes — the indented JSON array, the CMR1 binary codec,
// or its gzip frame. It reads r to EOF, refusing more than maxDecodeLen
// bytes, and hands the bytes to DecodeReports. The reports may alias
// that buffer, but nothing else holds it, so the caller owns them
// outright.
func ReadReports(r io.Reader) ([]*Report, error) {
	data, err := readBounded(r, 0)
	if err != nil {
		return nil, fmt.Errorf("report: reading: %w", err)
	}
	return DecodeReports(data)
}

// readBounded reads r to EOF into a buffer sized for hint bytes,
// refusing input longer than maxDecodeLen.
func readBounded(r io.Reader, hint int) ([]byte, error) {
	// MinRead spare bytes let the read that meets EOF land without a
	// regrow.
	buf := bytes.NewBuffer(make([]byte, 0, hint+bytes.MinRead))
	if _, err := buf.ReadFrom(io.LimitReader(r, maxDecodeLen+1)); err != nil {
		return nil, err
	}
	if buf.Len() > maxDecodeLen {
		return nil, fmt.Errorf("input exceeds %d bytes", maxDecodeLen)
	}
	return buf.Bytes(), nil
}

// DecodeReports decodes a report envelope held wholly in memory,
// detecting the three formats (indented JSON, the CMR1 binary codec,
// its gzip frame) from the leading bytes. It is the package's one
// binary decoder: it walks the buffer in place and, on little-endian
// platforms, returns series blocks that ALIAS data instead of copying
// them (see decodeFloats in decode_zerocopy.go; build with the
// chaffmec_purego tag to force the copying fallback). A gzip frame is
// inflated, up to maxDecodeLen bytes, into a fresh buffer that only the
// returned reports hold (see inflate).
//
// The aliasing makes the contract explicit: the returned reports may
// share memory with data, so the caller must keep data live and
// unmodified for as long as the reports are in use. Consumers that
// deep-copy on use — engine.SeriesFromSnapshot, report.Merge — are
// safe by construction. Callers that cannot honor the lifetime rule
// should use ReadReports, whose buffer is private to its result.
func DecodeReports(data []byte) ([]*Report, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b { // gzip frame
		raw, err := inflate(data)
		if err != nil {
			return nil, fmt.Errorf("report: gzip frame: %w", err)
		}
		data = raw
	}
	if len(data) >= 4 && [4]byte(data[:4]) == binaryMagic {
		return decodeBinary(data)
	}
	return Read(bytes.NewReader(data))
}

// inflater is a pooled gzip reader over an in-memory frame: Reset
// reuses its flate decompressor, whose window and tables cost far more
// to allocate than the few KB a shard envelope inflates to.
type inflater struct {
	src bytes.Reader
	gz  gzip.Reader
}

var inflaters = sync.Pool{New: func() any { return new(inflater) }}

// maxInflateGuess caps the inflated-size guess at this multiple of the
// frame's length, so a forged trailer cannot make a small frame reserve
// a large buffer; report envelopes deflate by less than that.
const maxInflateGuess = 64

// inflate decompresses a gzip frame into a fresh buffer, refusing more
// than maxDecodeLen bytes, and reads it to EOF, so every member's CRC
// and length trailer is verified. The buffer is sized from the last
// member's ISIZE trailer (the inflated length mod 2^32), capped at
// maxDecodeLen and at maxInflateGuess times the frame: a wrong trailer
// only makes a wrong guess, which costs a regrow or some spare
// capacity, never a different result.
func inflate(frame []byte) ([]byte, error) {
	in := inflaters.Get().(*inflater)
	defer func() {
		in.src.Reset(nil)
		inflaters.Put(in)
	}()
	in.src.Reset(frame)
	if err := in.gz.Reset(&in.src); err != nil {
		return nil, err
	}
	// The 10-byte header parsed, so the frame holds a 4-byte trailer.
	trailer := uint64(binary.LittleEndian.Uint32(frame[len(frame)-4:]))
	return readBounded(&in.gz, int(min(trailer, maxDecodeLen, maxInflateGuess*uint64(len(frame)))))
}

func decodeBinary(data []byte) ([]*Report, error) {
	d := &byteDecoder{data: data, off: 4} // past the magic
	n := d.length("report count")
	if d.err != nil {
		return nil, fmt.Errorf("report: parsing binary: %w", d.err)
	}
	reps := make([]*Report, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		reps = append(reps, d.report())
	}
	if d.err != nil {
		return nil, fmt.Errorf("report: parsing binary: %w", d.err)
	}
	return reps, nil
}

// byteDecoder mirrors binEncoder over an in-memory buffer, latching the
// first error. Strings and spec blobs are copied (they are small and
// outliving data matters more than saving the bytes); float blocks go
// through the platform floats path, which aliases when it can.
type byteDecoder struct {
	data []byte
	off  int
	err  error
}

// take claims the next n bytes, failing like io.ReadFull on truncation.
func (d *byteDecoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n > len(d.data)-d.off {
		d.err = io.ErrUnexpectedEOF
		return nil
	}
	b := d.data[d.off : d.off+n : d.off+n]
	d.off += n
	return b
}

func (d *byteDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		d.err = decodeVarintErr(n)
		return 0
	}
	d.off += n
	return v
}

func (d *byteDecoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.data[d.off:])
	if n <= 0 {
		d.err = decodeVarintErr(n)
		return 0
	}
	d.off += n
	return v
}

func decodeVarintErr(n int) error {
	if n == 0 {
		return io.ErrUnexpectedEOF
	}
	return fmt.Errorf("varint overflows 64 bits")
}

// length reads an unsigned count and bounds it. Every counted item —
// a byte, a report, a map entry, a spine node — takes at least one byte
// of the buffer, so a count larger than the bytes that remain is
// corrupt: refusing it keeps every allocation sized from a count within
// a fixed multiple of the input.
func (d *byteDecoder) length(what string) int {
	v := d.uvarint()
	switch rest := len(d.data) - d.off; {
	case d.err != nil:
	case v > maxDecodeLen:
		d.err = fmt.Errorf("%s %d exceeds limit %d", what, v, maxDecodeLen)
	case v > uint64(rest):
		d.err = fmt.Errorf("%s %d exceeds the %d bytes that remain", what, v, rest)
	}
	return int(v)
}

func (d *byteDecoder) string() string {
	n := d.length("string length")
	if d.err != nil || n == 0 {
		return ""
	}
	return string(d.take(n))
}

func (d *byteDecoder) bytes() []byte {
	n := d.length("blob length")
	if d.err != nil || n == 0 {
		return nil
	}
	b := d.take(n)
	if d.err != nil {
		return nil
	}
	return append([]byte(nil), b...)
}

func (d *byteDecoder) float() float64 {
	b := d.take(8)
	if d.err != nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

// floatBlock claims a T-float series block through the platform decode
// path (decode_zerocopy.go / decode_purego.go).
func (d *byteDecoder) floatBlock(n int) []float64 {
	b := d.take(8 * n)
	if d.err != nil {
		return nil
	}
	return decodeFloats(b, n)
}

func (d *byteDecoder) report() *Report {
	rep := &Report{
		Name:   d.string(),
		Kind:   d.string(),
		Stream: d.string(),
	}
	rep.Seed = d.varint()
	rep.Horizon = int(d.varint())
	rep.TotalRuns = int(d.varint())
	rep.RunStart = int(d.varint())
	rep.RunCount = int(d.varint())
	rep.ElapsedMS = d.float()
	rep.Spec = d.bytes()

	if n := d.length("series count"); n > 0 && d.err == nil {
		rep.Series = make(map[string]engine.SeriesSnapshot, n)
		for i := 0; i < n && d.err == nil; i++ {
			name := d.string()
			rep.Series[name] = d.series()
		}
	}
	if n := d.length("scalars count"); n > 0 && d.err == nil {
		rep.Scalars = make(map[string]engine.ScalarSnapshot, n)
		for i := 0; i < n && d.err == nil; i++ {
			name := d.string()
			rep.Scalars[name] = d.scalar()
		}
	}
	return rep
}

func (d *byteDecoder) series() engine.SeriesSnapshot {
	snap := engine.SeriesSnapshot{T: int(d.varint()), Next: d.varint()}
	if d.err == nil && (snap.T < 0 || snap.T > maxDecodeLen) {
		d.err = fmt.Errorf("series length %d out of range", snap.T)
		return snap
	}
	nodes := d.length("node count")
	if d.err != nil || nodes == 0 {
		return snap
	}
	snap.Nodes = make([]engine.StatNode, nodes)
	pos := d.varint() // first node's start; the rest follow contiguously
	for i := range snap.Nodes {
		n := d.varint()
		snap.Nodes[i].Start = pos
		snap.Nodes[i].N = n
		pos += n
	}
	for i := range snap.Nodes {
		snap.Nodes[i].Mean = d.floatBlock(snap.T)
		snap.Nodes[i].M2 = d.floatBlock(snap.T)
	}
	return snap
}

func (d *byteDecoder) scalar() engine.ScalarSnapshot {
	snap := engine.ScalarSnapshot{Next: d.varint()}
	nodes := d.length("node count")
	if d.err != nil || nodes == 0 {
		return snap
	}
	snap.Nodes = make([]engine.ScalarStatNode, nodes)
	pos := d.varint()
	for i := range snap.Nodes {
		n := d.varint()
		snap.Nodes[i].Start = pos
		snap.Nodes[i].N = n
		pos += n
	}
	for i := range snap.Nodes {
		snap.Nodes[i].Mean = d.float()
		snap.Nodes[i].M2 = d.float()
	}
	return snap
}
