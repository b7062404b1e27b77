package report

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"sync"

	"chaffmec/internal/engine"
)

// Binary Report codec — the wire format behind WriteReportsBinary /
// DecodeReports. A Report's bulk is its accumulator snapshots: dyadic
// spines whose nodes are contiguous by construction ([Start,Start+N)
// ranges tiling the covered run range) over per-slot float64 blocks.
// JSON spells every float as a ~20-byte decimal literal on its own
// indented line; the binary format stores the spine as varints (one
// start, then per-node lengths — the contiguity makes the rest
// redundant) and the float blocks as raw little-endian bits, optionally
// behind a gzip frame. Decoding reproduces the exact float64 bits, so
// re-encoding a decoded envelope as JSON is byte-identical to the JSON
// the producer would have written — the property the round-trip tests
// pin and the coordinator's bit-for-bit merge guarantee rides on.
//
// Layout (all integers are varints: unsigned for counts/lengths,
// zigzag for values that may be negative):
//
//	magic "CMR1" | report count | reports...
//
// each report:
//
//	name kind stream (string: length + bytes)
//	seed(zigzag) horizon total_runs run_start run_count
//	elapsed_ms (8 bytes, IEEE-754 little endian)
//	spec (length + raw JSON bytes; 0 = none)
//	series count  | sorted by name: name + series snapshot
//	scalars count | sorted by name: name + scalar snapshot
//
// series snapshot:
//
//	T | next(zigzag) | node count | first start(zigzag) | per-node N |
//	per-node Mean block (T×8 bytes) + M2 block (T×8 bytes)
//
// scalar snapshot: as above with T fixed to 1 (Mean/M2 one float each).
//
// A gzip frame (RFC 1952, detected by its 1f 8b magic) may wrap the
// whole stream; DecodeReports also auto-detects plain JSON input, so any
// reader handles any historical file.

// binaryMagic brands the uncompressed binary stream ("ChaffMec Reports
// v1").
var binaryMagic = [4]byte{'C', 'M', 'R', '1'}

// maxDecodeLen bounds what decoding reads: the bytes of an envelope (a
// reader's input, and a gzip frame's inflated contents) and every length
// field within it, so a corrupted or adversarial stream fails fast
// instead of attempting a multi-GB allocation.
const maxDecodeLen = 1 << 28

// gzipWriters pools the gzip writers of WriteReportsBinary: each holds
// a deflate compressor of about 1 MB that gzip.NewWriter allocates and
// zeroes, and a campaign frames one envelope per worker response, banked
// shard and checkpoint. Reset restarts a pooled writer's stream, so its
// bytes equal a fresh writer's.
var gzipWriters = sync.Pool{New: func() any { return gzip.NewWriter(io.Discard) }}

// WriteReportsBinary encodes reports in the compact binary format,
// gzip-framed when compress is set. The encoding streams: nothing is
// buffered beyond bufio/gzip block granularity.
func WriteReportsBinary(w io.Writer, reports []*Report, compress bool) error {
	if !compress {
		return encodeBinary(w, reports)
	}
	gz := gzipWriters.Get().(*gzip.Writer)
	defer gzipWriters.Put(gz)
	gz.Reset(w)
	return encodeBinaryGzip(gz, reports)
}

// encodeBinaryGzip encodes reports through gz and closes its frame.
func encodeBinaryGzip(gz *gzip.Writer, reports []*Report) error {
	if err := encodeBinary(gz, reports); err != nil {
		return err
	}
	return gz.Close()
}

// encodeBinary writes the unframed binary layout to w.
func encodeBinary(w io.Writer, reports []*Report) error {
	bw := bufio.NewWriter(w)
	e := &binEncoder{w: bw}
	e.write(binaryMagic[:])
	e.uvarint(uint64(len(reports)))
	for _, rep := range reports {
		e.report(rep)
	}
	if e.err != nil {
		return e.err
	}
	return bw.Flush()
}

// binEncoder writes the binary layout, latching the first error so the
// per-field calls stay unconditional.
type binEncoder struct {
	w   *bufio.Writer
	err error
	buf [binary.MaxVarintLen64]byte
}

func (e *binEncoder) write(b []byte) {
	if e.err == nil {
		_, e.err = e.w.Write(b)
	}
}

func (e *binEncoder) uvarint(v uint64) {
	e.write(e.buf[:binary.PutUvarint(e.buf[:], v)])
}

func (e *binEncoder) varint(v int64) {
	e.write(e.buf[:binary.PutVarint(e.buf[:], v)])
}

func (e *binEncoder) string(s string) {
	e.uvarint(uint64(len(s)))
	if e.err == nil {
		_, e.err = e.w.WriteString(s)
	}
}

func (e *binEncoder) bytes(b []byte) {
	e.uvarint(uint64(len(b)))
	e.write(b)
}

func (e *binEncoder) float(f float64) {
	binary.LittleEndian.PutUint64(e.buf[:8], math.Float64bits(f))
	e.write(e.buf[:8])
}

func (e *binEncoder) floats(fs []float64) {
	for _, f := range fs {
		e.float(f)
	}
}

func (e *binEncoder) report(rep *Report) {
	e.string(rep.Name)
	e.string(rep.Kind)
	e.string(rep.Stream)
	e.varint(rep.Seed)
	e.varint(int64(rep.Horizon))
	e.varint(int64(rep.TotalRuns))
	e.varint(int64(rep.RunStart))
	e.varint(int64(rep.RunCount))
	e.float(rep.ElapsedMS)
	e.bytes(rep.Spec)

	e.uvarint(uint64(len(rep.Series)))
	for _, name := range keys(rep.Series) {
		e.string(name)
		e.series(name, rep.Series[name])
	}
	e.uvarint(uint64(len(rep.Scalars)))
	for _, name := range keys(rep.Scalars) {
		e.string(name)
		e.scalar(name, rep.Scalars[name])
	}
}

// spineError rejects a snapshot the delta encoding cannot represent.
// Valid snapshots (anything SeriesFromSnapshot accepts) always pass:
// their nodes tile a contiguous run range ending at Next.
func spineError(name string, i int, got, want int64) error {
	return fmt.Errorf("report: series %q node %d starts at %d, want %d: snapshot is not contiguous", name, i, got, want)
}

func (e *binEncoder) series(name string, snap engine.SeriesSnapshot) {
	e.varint(int64(snap.T))
	e.varint(snap.Next)
	e.uvarint(uint64(len(snap.Nodes)))
	pos := int64(-1)
	for i, node := range snap.Nodes {
		if i == 0 {
			e.varint(node.Start)
		} else if e.err == nil && node.Start != pos {
			e.err = spineError(name, i, node.Start, pos)
		}
		pos = node.Start + node.N
		e.varint(node.N)
		if e.err == nil && (len(node.Mean) != snap.T || len(node.M2) != snap.T) {
			e.err = fmt.Errorf("report: series %q node %d has %d/%d slots, want %d", name, i, len(node.Mean), len(node.M2), snap.T)
		}
	}
	for _, node := range snap.Nodes {
		e.floats(node.Mean)
		e.floats(node.M2)
	}
}

func (e *binEncoder) scalar(name string, snap engine.ScalarSnapshot) {
	e.varint(snap.Next)
	e.uvarint(uint64(len(snap.Nodes)))
	pos := int64(-1)
	for i, node := range snap.Nodes {
		if i == 0 {
			e.varint(node.Start)
		} else if e.err == nil && node.Start != pos {
			e.err = spineError(name, i, node.Start, pos)
		}
		pos = node.Start + node.N
		e.varint(node.N)
	}
	for _, node := range snap.Nodes {
		e.float(node.Mean)
		e.float(node.M2)
	}
}

// Encoding names a report wire/file format.
type Encoding string

// The encodings this package writes. EncodingNames order them from most
// to least compact.
const (
	// EncodingJSON is the historical indented JSON array (Write/Read).
	EncodingJSON Encoding = "json"
	// EncodingBinary is the compact binary codec.
	EncodingBinary Encoding = "binary"
	// EncodingBinaryGzip is the binary codec behind a gzip frame.
	EncodingBinaryGzip Encoding = "binary+gzip"
)

// WriteEncoded writes reports to w in the named encoding.
func WriteEncoded(w io.Writer, reports []*Report, enc Encoding) error {
	switch enc {
	case EncodingJSON, "":
		return Write(w, reports)
	case EncodingBinary:
		return WriteReportsBinary(w, reports, false)
	case EncodingBinaryGzip:
		return WriteReportsBinary(w, reports, true)
	default:
		return fmt.Errorf("report: unknown encoding %q", enc)
	}
}

// WriteFileEncoded writes reports to path in the named encoding.
// ReadFile auto-detects all of them.
func WriteFileEncoded(path string, reports []*Report, enc Encoding) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteEncoded(f, reports, enc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
