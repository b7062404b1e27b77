package figures

import (
	"bufio"
	"bytes"
	"cmp"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"chaffmec/internal/geo"
	"chaffmec/internal/markov"
)

// TraceLab serialization — the artifact format the content-addressed
// store persists fitted labs in, so a fresh worker warm-starts a trace
// Job from disk instead of re-running the generate/regularize/quantize/
// fit pipeline. The encoding holds exactly the state a lab is rebuilt
// from: the fitted chain as sparse rows (an empirical N×N transition
// matrix is overwhelmingly zeros) with its pinned empirical steady
// state, the tower field (the quantizer re-derives its grid from the
// towers deterministically), and the quantized node trajectories with
// delta-coded cell ids. Floats travel as raw IEEE-754 bits, so
// DecodeTraceLab reproduces the original lab's chain and cells
// bit-for-bit — every downstream Report stays bitwise identical to a
// cold build. The whole stream sits behind a gzip frame; any
// truncation or bit damage fails the frame's CRC or the chain/tower
// validation on decode, and the store caller falls back to a rebuild.
const traceLabMagic = "CMTL1"

// maxLabLen bounds decoded counts so a corrupt blob fails fast instead
// of attempting a huge allocation.
const maxLabLen = 1 << 26

// labPrealloc caps what the decoder allocates from a count before the
// counted elements arrive; slices grow past it only as they do.
const labPrealloc = 4096

// Encode writes the lab in the persistent artifact format.
func (lab *TraceLab) Encode(w io.Writer) error {
	pi, err := lab.Chain.SteadyState()
	if err != nil {
		return fmt.Errorf("figures: encoding lab: %w", err)
	}
	if len(lab.Nodes) != len(lab.Trajectories) {
		return fmt.Errorf("figures: encoding lab: %d nodes, %d trajectories", len(lab.Nodes), len(lab.Trajectories))
	}
	gz := gzip.NewWriter(w)
	e := &labEncoder{w: bufio.NewWriter(gz)}
	e.write([]byte(traceLabMagic))
	e.uvarint(uint64(lab.Horizon))
	e.uvarint(uint64(lab.FilteredNodes))

	// Chain: sparse rows (delta-coded positive columns) + steady state.
	n := lab.Chain.NumStates()
	e.uvarint(uint64(n))
	for i := 0; i < n; i++ {
		succ := lab.Chain.Successors(i)
		e.uvarint(uint64(len(succ)))
		prev := 0
		for _, j := range succ {
			e.varint(int64(j - prev))
			prev = j
			e.float(lab.Chain.Prob(i, j))
		}
	}
	e.sparse(pi)

	towers := lab.Quantizer.Towers()
	e.uvarint(uint64(len(towers)))
	for _, tw := range towers {
		e.float(tw.X)
		e.float(tw.Y)
	}

	e.uvarint(uint64(len(lab.Nodes)))
	for i, node := range lab.Nodes {
		e.string(node)
		traj := lab.Trajectories[i]
		e.uvarint(uint64(len(traj)))
		prev := int64(0)
		for _, cell := range traj {
			e.varint(int64(cell) - prev)
			prev = int64(cell)
		}
	}
	if e.err != nil {
		return fmt.Errorf("figures: encoding lab: %w", e.err)
	}
	if err := e.w.Flush(); err != nil {
		return err
	}
	return gz.Close()
}

// DecodeTraceLab reconstructs a lab from its persistent artifact form,
// validating what a corrupted blob could break (the gzip CRC catches
// bit damage; chain and quantizer constructors re-validate their
// invariants; cells are range-checked).
func DecodeTraceLab(r io.Reader) (*TraceLab, error) {
	gz, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("figures: decoding lab: %w", err)
	}
	defer gz.Close()
	d := &labDecoder{r: bufio.NewReader(gz)}

	magic := make([]byte, len(traceLabMagic))
	d.read(magic)
	if d.err == nil && string(magic) != traceLabMagic {
		return nil, fmt.Errorf("figures: decoding lab: bad magic %q", magic)
	}
	lab := &TraceLab{
		Horizon:       d.length("horizon"),
		FilteredNodes: d.length("filtered nodes"),
	}

	// The chain stays sparse until the towers confirm its state count:
	// its dense form is n² floats, which no count alone may ask for.
	n := d.length("state count")
	rows := make([]markov.SparseRow, 0, min(n, labPrealloc))
	for i := 0; i < n && d.err == nil; i++ {
		rows = append(rows, d.sparse(n))
	}
	pi := d.sparse(n)

	nt := d.length("tower count")
	towers := make([]geo.Point, 0, min(nt, labPrealloc))
	for i := 0; i < nt && d.err == nil; i++ {
		towers = append(towers, geo.Point{X: d.float(), Y: d.float()})
	}

	nn := d.length("node count")
	for i := 0; i < nn && d.err == nil; i++ {
		lab.Nodes = append(lab.Nodes, d.string())
		tl := d.length("trajectory length")
		traj := make(markov.Trajectory, 0, min(tl, labPrealloc))
		prev := int64(0)
		for j := 0; j < tl && d.err == nil; j++ {
			cell := prev + d.varint()
			if d.err == nil && (cell < 0 || cell >= int64(n)) {
				d.err = fmt.Errorf("node %d cell %d outside [0,%d)", i, cell, n)
			}
			traj = append(traj, int(cell))
			prev = cell
		}
		lab.Trajectories = append(lab.Trajectories, traj)
	}
	if d.err != nil {
		return nil, fmt.Errorf("figures: decoding lab: %w", d.err)
	}
	// The trailer check: drain to EOF so gzip verifies its CRC before we
	// trust any of the floats above.
	if _, err := io.Copy(io.Discard, gz); err != nil {
		return nil, fmt.Errorf("figures: decoding lab: %w", err)
	}
	if len(towers) != n {
		return nil, fmt.Errorf("figures: decoding lab: %d towers for %d chain states", len(towers), n)
	}

	// The towers confirmed n, so π may now take its dense form.
	piDense := make([]float64, n)
	for k, j := range pi.Cols {
		piDense[j] = pi.Vals[k]
	}
	lab.Chain, err = markov.NewSparseWithStationary(rows, piDense)
	if err != nil {
		return nil, fmt.Errorf("figures: decoding lab: %w", err)
	}
	lab.Quantizer, err = geo.NewQuantizer(towers)
	if err != nil {
		return nil, fmt.Errorf("figures: decoding lab: %w", err)
	}
	return lab, nil
}

type labEncoder struct {
	w   *bufio.Writer
	err error
	buf [binary.MaxVarintLen64]byte
}

func (e *labEncoder) write(b []byte) {
	if e.err == nil {
		_, e.err = e.w.Write(b)
	}
}

func (e *labEncoder) uvarint(v uint64) {
	e.write(e.buf[:binary.PutUvarint(e.buf[:], v)])
}

func (e *labEncoder) varint(v int64) {
	e.write(e.buf[:binary.PutVarint(e.buf[:], v)])
}

func (e *labEncoder) float(f float64) {
	binary.LittleEndian.PutUint64(e.buf[:8], math.Float64bits(f))
	e.write(e.buf[:8])
}

func (e *labEncoder) string(s string) {
	e.uvarint(uint64(len(s)))
	if e.err == nil {
		_, e.err = e.w.WriteString(s)
	}
}

// sparse writes a float vector as (nnz, then per entry: column delta,
// value bits) — empirical transition rows and occupancies are mostly
// zero.
func (e *labEncoder) sparse(v []float64) {
	nnz := 0
	for _, x := range v {
		if x != 0 {
			nnz++
		}
	}
	e.uvarint(uint64(nnz))
	prev := int64(0)
	for j, x := range v {
		if x == 0 {
			continue
		}
		e.varint(int64(j) - prev)
		prev = int64(j)
		e.float(x)
	}
}

type labDecoder struct {
	r   *bufio.Reader
	err error
	buf [8]byte
}

func (d *labDecoder) read(b []byte) {
	if d.err == nil {
		_, d.err = io.ReadFull(d.r, b)
	}
}

func (d *labDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(d.r)
	if err != nil {
		d.err = err
	}
	return v
}

func (d *labDecoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, err := binary.ReadVarint(d.r)
	if err != nil {
		d.err = err
	}
	return v
}

func (d *labDecoder) length(what string) int {
	v := d.uvarint()
	if d.err == nil && v > maxLabLen {
		d.err = fmt.Errorf("%s %d exceeds limit %d", what, v, maxLabLen)
	}
	if d.err != nil {
		return 0
	}
	return int(v)
}

func (d *labDecoder) float() float64 {
	d.read(d.buf[:8])
	return math.Float64frombits(binary.LittleEndian.Uint64(d.buf[:8]))
}

func (d *labDecoder) string() string {
	n := d.length("string length")
	if d.err != nil || n == 0 {
		return ""
	}
	var b bytes.Buffer // grows as bytes arrive, not to a claimed length
	if m, err := b.ReadFrom(io.LimitReader(d.r, int64(n))); err != nil || m < int64(n) {
		d.err = cmp.Or(err, io.ErrUnexpectedEOF)
		return ""
	}
	return b.String()
}

// sparse reads one sparse vector of length n; its columns must be
// strictly ascending, as the encoder writes them.
func (d *labDecoder) sparse(n int) markov.SparseRow {
	nnz := d.length("sparse entries")
	out := markov.SparseRow{
		Cols: make([]int, 0, min(nnz, labPrealloc)),
		Vals: make([]float64, 0, min(nnz, labPrealloc)),
	}
	prev := int64(0)
	for k := 0; k < nnz && d.err == nil; k++ {
		j := prev + d.varint()
		switch {
		case d.err != nil:
		case j < 0 || j >= int64(n):
			d.err = fmt.Errorf("sparse column %d outside [0,%d)", j, n)
		case k > 0 && j <= prev:
			d.err = fmt.Errorf("sparse column %d follows column %d", j, prev)
		}
		if d.err != nil {
			return markov.SparseRow{}
		}
		prev = j
		out.Cols = append(out.Cols, int(j))
		out.Vals = append(out.Vals, d.float())
	}
	return out
}
