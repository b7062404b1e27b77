package report

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"chaffmec/internal/engine"
)

// Binary Report codec — the wire format behind WriteReportsBinary /
// ReadReports. A Report's bulk is its accumulator snapshots: dyadic
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
// whole stream; ReadReports also auto-detects plain JSON input, so any
// reader handles any historical file.

// binaryMagic brands the uncompressed binary stream ("ChaffMec Reports
// v1").
var binaryMagic = [4]byte{'C', 'M', 'R', '1'}

// maxDecodeLen bounds single length fields while decoding (strings,
// spec blobs, node counts), so a corrupted or adversarial stream fails
// fast instead of attempting a multi-GB allocation.
const maxDecodeLen = 1 << 28

// maxPrealloc caps how many elements a decoder allocates up front from
// a count it has not yet seen the bytes for. The streaming decoder
// cannot check a count against the remaining input, so it grows past
// this cap only as elements actually arrive.
const maxPrealloc = 4096

// WriteReportsBinary encodes reports in the compact binary format,
// gzip-framed when compress is set. The encoding streams: nothing is
// buffered beyond bufio/gzip block granularity.
func WriteReportsBinary(w io.Writer, reports []*Report, compress bool) error {
	var bw *bufio.Writer
	var gz *gzip.Writer
	if compress {
		gz = gzip.NewWriter(w)
		bw = bufio.NewWriter(gz)
	} else {
		bw = bufio.NewWriter(w)
	}
	e := &binEncoder{w: bw}
	e.write(binaryMagic[:])
	e.uvarint(uint64(len(reports)))
	for _, rep := range reports {
		e.report(rep)
	}
	if e.err != nil {
		return e.err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if gz != nil {
		return gz.Close()
	}
	return nil
}

// ReadReports decodes a report envelope stream in any of the formats
// this package writes — the indented JSON array, the binary codec, or
// its gzip frame — auto-detected from the leading bytes. Decoding
// streams from r without buffering the whole envelope.
func ReadReports(r io.Reader) ([]*Report, error) {
	br := bufio.NewReader(r)
	head, err := br.Peek(2)
	if err != nil {
		return nil, fmt.Errorf("report: parsing: %w", err)
	}
	if head[0] == 0x1f && head[1] == 0x8b { // gzip frame
		gz, err := gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("report: gzip frame: %w", err)
		}
		defer gz.Close()
		reps, err := readBinary(bufio.NewReader(gz))
		if err != nil {
			return nil, err
		}
		// Drain to EOF so the frame's CRC/length trailer is verified — a
		// truncated or bit-flipped stream must fail here, not decode.
		if _, err := io.Copy(io.Discard, gz); err != nil {
			return nil, fmt.Errorf("report: gzip frame: %w", err)
		}
		return reps, nil
	}
	if head[0] == binaryMagic[0] {
		magic, err := br.Peek(4)
		if err == nil && [4]byte(magic) == binaryMagic {
			return readBinary(br)
		}
	}
	return Read(br)
}

func readBinary(br *bufio.Reader) ([]*Report, error) {
	d := &binDecoder{r: br}
	var magic [4]byte
	d.read(magic[:])
	if d.err == nil && magic != binaryMagic {
		return nil, fmt.Errorf("report: bad binary magic %q", magic[:])
	}
	n := d.length("report count")
	if d.err != nil {
		return nil, fmt.Errorf("report: parsing binary: %w", d.err)
	}
	reps := make([]*Report, 0, min(n, maxPrealloc))
	for i := 0; i < n && d.err == nil; i++ {
		reps = append(reps, d.report())
	}
	if d.err != nil {
		return nil, fmt.Errorf("report: parsing binary: %w", d.err)
	}
	return reps, nil
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

// binDecoder mirrors binEncoder, latching the first error.
type binDecoder struct {
	r   *bufio.Reader
	err error
	buf [8]byte
}

func (d *binDecoder) read(b []byte) {
	if d.err == nil {
		_, d.err = io.ReadFull(d.r, b)
	}
}

func (d *binDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(d.r)
	if err != nil {
		d.err = err
	}
	return v
}

func (d *binDecoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, err := binary.ReadVarint(d.r)
	if err != nil {
		d.err = err
	}
	return v
}

// length reads an unsigned count and bounds it, naming the field in the
// corruption error.
func (d *binDecoder) length(what string) int {
	v := d.uvarint()
	if d.err == nil && v > maxDecodeLen {
		d.err = fmt.Errorf("%s %d exceeds limit %d", what, v, maxDecodeLen)
	}
	return int(v)
}

// readN reads an n-byte field, doubling the buffer only as bytes
// actually arrive, so a corrupt length fails at the end of the input
// instead of allocating ahead of it.
func (d *binDecoder) readN(n int) []byte {
	b := make([]byte, min(n, maxPrealloc))
	d.read(b)
	for len(b) < n && d.err == nil {
		k := min(n-len(b), len(b))
		b = append(b, make([]byte, k)...)
		d.read(b[len(b)-k:])
	}
	return b
}

func (d *binDecoder) string() string {
	n := d.length("string length")
	if d.err != nil || n == 0 {
		return ""
	}
	return string(d.readN(n))
}

func (d *binDecoder) bytes() []byte {
	n := d.length("blob length")
	if d.err != nil || n == 0 {
		return nil
	}
	return d.readN(n)
}

func (d *binDecoder) float() float64 {
	d.read(d.buf[:8])
	return math.Float64frombits(binary.LittleEndian.Uint64(d.buf[:8]))
}

func (d *binDecoder) floats(n int) []float64 {
	if d.err != nil {
		return nil
	}
	out := make([]float64, min(n, maxPrealloc))
	for i := range out {
		out[i] = d.float()
	}
	for len(out) < n && d.err == nil {
		out = append(out, d.float())
	}
	return out
}

func (d *binDecoder) report() *Report {
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
		rep.Series = make(map[string]engine.SeriesSnapshot, min(n, maxPrealloc))
		for i := 0; i < n && d.err == nil; i++ {
			name := d.string()
			rep.Series[name] = d.series()
		}
	}
	if n := d.length("scalars count"); n > 0 && d.err == nil {
		rep.Scalars = make(map[string]engine.ScalarSnapshot, min(n, maxPrealloc))
		for i := 0; i < n && d.err == nil; i++ {
			name := d.string()
			rep.Scalars[name] = d.scalar()
		}
	}
	return rep
}

func (d *binDecoder) series() engine.SeriesSnapshot {
	snap := engine.SeriesSnapshot{T: int(d.varint()), Next: d.varint()}
	if d.err == nil && (snap.T < 0 || snap.T > maxDecodeLen) {
		d.err = fmt.Errorf("series length %d out of range", snap.T)
		return snap
	}
	nodes := d.length("node count")
	if d.err != nil || nodes == 0 {
		return snap
	}
	snap.Nodes = make([]engine.StatNode, 0, min(nodes, maxPrealloc))
	pos := d.varint() // first node's start; the rest follow contiguously
	for i := 0; i < nodes && d.err == nil; i++ {
		n := d.varint()
		snap.Nodes = append(snap.Nodes, engine.StatNode{Start: pos, N: n})
		pos += n
	}
	for i := range snap.Nodes {
		snap.Nodes[i].Mean = d.floats(snap.T)
		snap.Nodes[i].M2 = d.floats(snap.T)
	}
	return snap
}

func (d *binDecoder) scalar() engine.ScalarSnapshot {
	snap := engine.ScalarSnapshot{Next: d.varint()}
	nodes := d.length("node count")
	if d.err != nil || nodes == 0 {
		return snap
	}
	snap.Nodes = make([]engine.ScalarStatNode, 0, min(nodes, maxPrealloc))
	pos := d.varint()
	for i := 0; i < nodes && d.err == nil; i++ {
		n := d.varint()
		snap.Nodes = append(snap.Nodes, engine.ScalarStatNode{Start: pos, N: n})
		pos += n
	}
	for i := range snap.Nodes {
		snap.Nodes[i].Mean = d.float()
		snap.Nodes[i].M2 = d.float()
	}
	return snap
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
