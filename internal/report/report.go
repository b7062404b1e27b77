// Package report defines the serializable result envelope of the one
// experiment API: every scenario kind — whatever harness it runs on —
// answers a Job with a Report holding its named per-slot series and
// scalar aggregates together with full provenance (spec echo, seed,
// stream version, covered run range, timing).
//
// A Report is JSON-round-trippable without loss: the aggregates are the
// engine's position-aware dyadic accumulator snapshots, and Go's JSON
// encoder emits shortest-representation float64 literals that decode to
// the identical bits. That makes the envelope the unit of cross-process
// fan-out: complementary shards of one experiment, run by different
// processes or hosts and merged with Merge, reproduce the single-process
// Report bit-for-bit (see internal/engine's package comment for why).
package report

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"

	"chaffmec/internal/engine"
)

// Canonical series names. Every kind publishes SeriesTracking; kinds add
// further series and scalars under their own names.
const (
	// SeriesTracking is the eavesdropper's per-slot tracking accuracy —
	// the paper's headline metric, present in every Report.
	SeriesTracking = "tracking"
	// SeriesDetection is the per-slot detection accuracy (kinds running
	// on the single-user harness).
	SeriesDetection = "detection"
)

// Report is one scenario's (possibly partial) aggregated outcome.
type Report struct {
	// Name and Kind echo the job's scenario.
	Name string `json:"name"`
	Kind string `json:"kind"`
	// Seed is the experiment seed; Horizon the series length T.
	Seed    int64 `json:"seed"`
	Horizon int   `json:"horizon"`
	// TotalRuns is the experiment's full Monte-Carlo repetition count;
	// RunStart/RunCount delimit the contiguous global run range this
	// report covers ([RunStart, RunStart+RunCount)). A complete report
	// covers [0, TotalRuns).
	TotalRuns int `json:"total_runs"`
	RunStart  int `json:"run_start"`
	RunCount  int `json:"run_count"`
	// Stream records the rng substrate version the runs drew from
	// (rng.StreamVersion); Merge refuses to combine mismatched streams.
	Stream string `json:"stream"`
	// ElapsedMS is the wall-clock milliseconds spent producing this
	// report; merging sums the parts (so a merged report carries the
	// total compute, not the critical path).
	ElapsedMS float64 `json:"elapsed_ms"`
	// Spec echoes the job's scenario spec as submitted (provenance).
	Spec json.RawMessage `json:"spec,omitempty"`
	// Series and Scalars are the named aggregates: positioned dyadic
	// accumulator snapshots, exactly mergeable across shards.
	Series  map[string]engine.SeriesSnapshot `json:"series,omitempty"`
	Scalars map[string]engine.ScalarSnapshot `json:"scalars,omitempty"`
}

// Complete reports whether the report covers its experiment's whole run
// range.
func (r *Report) Complete() bool {
	return r.RunStart == 0 && r.RunCount == r.TotalRuns
}

// SeriesStats reconstructs one named series accumulator.
func (r *Report) SeriesStats(name string) (*engine.SeriesStats, error) {
	snap, ok := r.Series[name]
	if !ok {
		return nil, fmt.Errorf("report: %q has no series %q", r.Name, name)
	}
	return engine.SeriesFromSnapshot(snap)
}

// ScalarStats reconstructs one named scalar accumulator.
func (r *Report) ScalarStats(name string) (engine.ScalarStats, error) {
	snap, ok := r.Scalars[name]
	if !ok {
		return engine.ScalarStats{}, fmt.Errorf("report: %q has no scalar %q", r.Name, name)
	}
	return engine.ScalarFromSnapshot(snap)
}

// TargetSE evaluates the standard error an adaptive precision target
// tracks on this report's coverage: the WORST (maximum) per-slot
// standard error of the named series, or the named scalar's standard
// error. Both names empty defaults to the canonical tracking series.
// The value is a pure function of the report's aggregates, so a resumed
// driver recomputes exactly the SE the checkpointing driver saw.
func (r *Report) TargetSE(t engine.Target) (float64, error) {
	if t.Scalar != "" {
		s, err := r.ScalarStats(t.Scalar)
		if err != nil {
			return 0, err
		}
		return s.StdErr(), nil
	}
	name := t.Series
	if name == "" {
		name = SeriesTracking
	}
	s, err := r.SeriesStats(name)
	if err != nil {
		return 0, err
	}
	worst := 0.0
	for _, se := range s.StdErr() {
		if se > worst {
			worst = se
		}
	}
	return worst, nil
}

// Extend appends continuation partials to r in place: each part must
// start exactly where the accumulated coverage ends (contiguity, header,
// stream, spec and key checks are Merge's). Unlike Merge, Extend
// tolerates parts declaring different TotalRuns — rounds of an adaptive
// job do not know the final run count in advance — and adopts the
// largest declared value; an adaptive driver re-stamps TotalRuns to the
// covered count when it stops. The parts are not modified.
func (r *Report) Extend(parts ...*Report) error {
	if len(parts) == 0 {
		return nil
	}
	total := r.TotalRuns
	for _, p := range parts {
		if p.TotalRuns > total {
			total = p.TotalRuns
		}
	}
	all := make([]*Report, 0, len(parts)+1)
	for _, p := range append([]*Report{r}, parts...) {
		cl := *p
		cl.TotalRuns = total
		all = append(all, &cl)
	}
	merged, err := Merge(all...)
	if err != nil {
		return err
	}
	*r = *merged
	return nil
}

// Summary is the human-facing digest of a Report's tracking series.
type Summary struct {
	// PerSlot is the mean per-slot tracking accuracy over the covered
	// runs, PerSlotStdErr its standard error, Overall its time average
	// (the paper's headline number).
	PerSlot       []float64 `json:"per_slot"`
	PerSlotStdErr []float64 `json:"per_slot_stderr"`
	Overall       float64   `json:"overall"`
	// Runs is the number of covered Monte-Carlo runs.
	Runs int `json:"runs"`
}

// Summary digests the canonical tracking series.
func (r *Report) Summary() (*Summary, error) {
	track, err := r.SeriesStats(SeriesTracking)
	if err != nil {
		return nil, err
	}
	s := &Summary{
		PerSlot:       track.Mean(),
		PerSlotStdErr: track.StdErr(),
		Runs:          track.N(),
	}
	s.Overall = timeAverage(s.PerSlot)
	return s, nil
}

// timeAverage mirrors detect.TimeAverage (the paper's (1/T)·Σ_t) without
// importing the detector layer.
func timeAverage(series []float64) float64 {
	if len(series) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range series {
		s += v
	}
	return s / float64(len(series))
}

// header returns the fields two reports must share to be mergeable.
func (r *Report) header() [5]interface{} {
	return [5]interface{}{r.Name, r.Kind, r.Seed, r.Horizon, r.TotalRuns}
}

// Merge combines partial reports of one experiment into one report
// covering the union of their run ranges. The parts must agree on
// name/kind/seed/horizon/total runs/stream/spec and their ranges must be
// contiguous and non-overlapping (any order is accepted; Merge sorts by
// RunStart). Merging complementary shards reproduces the single-process
// report bit-for-bit. The inputs are not modified.
func Merge(parts ...*Report) (*Report, error) {
	if len(parts) == 0 {
		return nil, errors.New("report: nothing to merge")
	}
	sorted := append([]*Report(nil), parts...)
	// Tie-break on RunCount so an empty shard [s,s) — produced when the
	// shard count exceeds the run count — sorts before the nonempty
	// shard starting at the same run and passes the contiguity check.
	sort.SliceStable(sorted, func(a, b int) bool {
		if sorted[a].RunStart != sorted[b].RunStart {
			return sorted[a].RunStart < sorted[b].RunStart
		}
		return sorted[a].RunCount < sorted[b].RunCount
	})

	first := sorted[0]
	out := &Report{
		Name: first.Name, Kind: first.Kind,
		Seed: first.Seed, Horizon: first.Horizon,
		TotalRuns: first.TotalRuns,
		RunStart:  first.RunStart,
		Stream:    first.Stream,
		Spec:      first.Spec,
	}

	series := map[string]*engine.SeriesStats{}
	scalars := map[string]engine.ScalarStats{}
	// Order-independence audit (machine-checked by the determinism
	// analyzer): each loop below is keyed per name — map-to-map rebuilds
	// or per-key accumulator merges with no cross-key state — so the
	// merged Report's bits cannot depend on Go's randomized iteration
	// order. The JSON/binary encoders re-sort keys at encode time
	// (codec.go iterates keys() sorted), which is where byte-level
	// canonicalization happens.
	//chaffmec:orderindependent per-name rebuild into another map; no cross-key state
	for name := range first.Series {
		s, err := first.SeriesStats(name)
		if err != nil {
			return nil, err
		}
		series[name] = s
	}
	//chaffmec:orderindependent per-name rebuild into another map; no cross-key state
	for name := range first.Scalars {
		s, err := first.ScalarStats(name)
		if err != nil {
			return nil, err
		}
		scalars[name] = s
	}
	out.RunCount = first.RunCount
	out.ElapsedMS = first.ElapsedMS

	for _, p := range sorted[1:] {
		// Every rejection names the offending shard's run range: a
		// coordinator retrying fanned-out shards logs these errors, and
		// "which shard" is the actionable part.
		if p.header() != first.header() {
			return nil, fmt.Errorf("report: cannot merge %q (%s, seed %d) with %s of %q (%s, seed %d): different experiments",
				first.Name, first.Kind, first.Seed, shardOf(p), p.Name, p.Kind, p.Seed)
		}
		if p.Stream != first.Stream {
			return nil, fmt.Errorf("report: cannot merge %s of %q: stream %q vs %q — partials drew from different generators",
				shardOf(p), p.Name, p.Stream, first.Stream)
		}
		if len(first.Spec) > 0 && len(p.Spec) > 0 && !bytes.Equal(first.Spec, p.Spec) &&
			!bytes.Equal(compactJSON(first.Spec), compactJSON(p.Spec)) {
			return nil, fmt.Errorf("report: cannot merge %q: partials declare different specs (offending %s)", first.Name, shardOf(p))
		}
		if want := out.RunStart + out.RunCount; p.RunStart != want {
			return nil, fmt.Errorf("report: %q covers runs [%d,%d), want a shard starting at %d (gap or overlap)",
				p.Name, p.RunStart, p.RunStart+p.RunCount, want)
		}
		if err := sameKeys(p, "series", first.Series, p.Series); err != nil {
			return nil, err
		}
		if err := sameKeys(p, "scalars", first.Scalars, p.Scalars); err != nil {
			return nil, err
		}
		//chaffmec:orderindependent each name merges into its own accumulator; first error reported is the only order-sensitive part and aborts the whole merge
		for name, acc := range series {
			if err := acc.MergeSnapshot(p.Series[name]); err != nil {
				return nil, fmt.Errorf("report: merging series %q of %s: %w", name, shardOf(p), err)
			}
		}
		//chaffmec:orderindependent each name merges into its own accumulator; first error reported is the only order-sensitive part and aborts the whole merge
		for name := range scalars {
			s, err := p.ScalarStats(name)
			if err != nil {
				return nil, err
			}
			acc := scalars[name]
			if err := acc.Merge(s); err != nil {
				return nil, fmt.Errorf("report: merging scalar %q of %s: %w", name, shardOf(p), err)
			}
			scalars[name] = acc
		}
		out.RunCount += p.RunCount
		out.ElapsedMS += p.ElapsedMS
	}

	if len(series) > 0 {
		out.Series = make(map[string]engine.SeriesSnapshot, len(series))
		//chaffmec:orderindependent per-name snapshot into another map; no cross-key state
		for name, acc := range series {
			out.Series[name] = acc.Snapshot()
		}
	}
	if len(scalars) > 0 {
		out.Scalars = make(map[string]engine.ScalarSnapshot, len(scalars))
		//chaffmec:orderindependent per-name snapshot into another map; no cross-key state
		for name, acc := range scalars {
			out.Scalars[name] = acc.Snapshot()
		}
	}
	return out, nil
}

func compactJSON(raw json.RawMessage) []byte {
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		return raw
	}
	return buf.Bytes()
}

func keys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	//chaffmec:orderindependent collect-then-sort: the sort.Strings below canonicalizes the order
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// shardOf labels a part by its run range in Merge's errors.
func shardOf(p *Report) string {
	return fmt.Sprintf("shard [%d,%d)", p.RunStart, p.RunStart+p.RunCount)
}

// sameKeys checks that part p publishes exactly the names want does.
func sameKeys[V any](p *Report, what string, want, got map[string]V) error {
	same := len(want) == len(got)
	//chaffmec:orderindependent an all-keys membership test; no cross-key state
	for name := range got {
		if _, ok := want[name]; !ok {
			same = false
			break
		}
	}
	if same {
		return nil
	}
	return fmt.Errorf("report: %s publishes different %s (%v vs %v)", shardOf(p), what, keys(got), keys(want))
}

// Write encodes reports as an indented JSON array.
func Write(w io.Writer, reports []*Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(reports)
}

// Read decodes a JSON array of reports.
func Read(r io.Reader) ([]*Report, error) {
	var out []*Report
	dec := json.NewDecoder(r)
	if err := dec.Decode(&out); err != nil {
		return nil, fmt.Errorf("report: parsing: %w", err)
	}
	return out, nil
}

// WriteFile writes reports to path as a JSON array.
func WriteFile(path string, reports []*Report) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, reports); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile reads a report envelope file in any format this package
// writes — JSON, binary, or gzip-framed binary — auto-detected.
func ReadFile(path string) ([]*Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadReports(f)
}
