package report

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"chaffmec/internal/engine"
	"chaffmec/internal/rng"
)

// buildPart assembles a deterministic partial report covering the run
// range [start, end) of a toy 2-slot experiment: run r contributes the
// series [r, 2r] and the scalar r².
func buildPart(t testing.TB, start, end, total int) *Report {
	t.Helper()
	track := engine.NewSeriesStatsAt(2, start)
	sq := engine.NewScalarStatsAt(start)
	for r := start; r < end; r++ {
		if err := track.Add([]float64{float64(r), 2 * float64(r)}); err != nil {
			t.Fatal(err)
		}
		sq.Add(float64(r) * float64(r))
	}
	return &Report{
		Name: "toy", Kind: "single", Seed: 9, Horizon: 2,
		TotalRuns: total, RunStart: start, RunCount: end - start,
		Stream:    rng.StreamVersion,
		ElapsedMS: 1.5,
		Spec:      json.RawMessage(`{"kind":"single","strategy":"MO"}`),
		Series:    map[string]engine.SeriesSnapshot{SeriesTracking: track.Snapshot()},
		Scalars:   map[string]engine.ScalarSnapshot{"sq": sq.Snapshot()},
	}
}

func TestJSONRoundTripLossless(t *testing.T) {
	orig := buildPart(t, 0, 13, 13)
	var buf bytes.Buffer
	if err := Write(&buf, []*Report{orig}); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 {
		t.Fatalf("%d reports decoded", len(back))
	}
	// Compare through a re-marshal: the envelope must be a fixed point
	// of encode∘decode (bitwise float round trip).
	a, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(back[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("report changed across JSON round trip:\n%s\n%s", a, b)
	}
	sum, err := back[0].Summary()
	if err != nil {
		t.Fatal(err)
	}
	origSum, err := orig.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sum, origSum) {
		t.Fatal("summary differs after round trip")
	}
}

// TestGoldenEnvelope pins the envelope's serialized field layout: a
// reader of partial files (another build, another host) depends on these
// key names staying put.
func TestGoldenEnvelope(t *testing.T) {
	rep := buildPart(t, 2, 4, 8)
	blob, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	golden := `{"name":"toy","kind":"single","seed":9,"horizon":2,"total_runs":8,"run_start":2,"run_count":2,` +
		`"stream":"splitmix64-derive/1","elapsed_ms":1.5,"spec":{"kind":"single","strategy":"MO"},` +
		`"series":{"tracking":{"t":2,"next":4,"nodes":[{"start":2,"n":2,"mean":[2.5,5],"m2":[0.5,2]}]}},` +
		`"scalars":{"sq":{"next":4,"nodes":[{"start":2,"n":2,"mean":6.5,"m2":12.5}]}}}`
	if string(blob) != golden {
		t.Fatalf("envelope layout changed:\n got %s\nwant %s", blob, golden)
	}
}

func TestMergeReproducesWholeBitForBit(t *testing.T) {
	const total = 29
	whole := buildPart(t, 0, total, total)
	for _, cuts := range [][]int{{0, 14, total}, {0, 7, 8, 21, total}} {
		var parts []*Report
		for i := 0; i+1 < len(cuts); i++ {
			parts = append(parts, buildPart(t, cuts[i], cuts[i+1], total))
		}
		// Merge in scrambled order: Merge sorts by RunStart itself.
		for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
			parts[i], parts[j] = parts[j], parts[i]
		}
		merged, err := Merge(parts...)
		if err != nil {
			t.Fatal(err)
		}
		if !merged.Complete() {
			t.Fatalf("merged report covers [%d,%d) of %d", merged.RunStart, merged.RunStart+merged.RunCount, merged.TotalRuns)
		}
		merged.ElapsedMS = whole.ElapsedMS // timing legitimately differs
		a, _ := json.Marshal(whole)
		b, _ := json.Marshal(merged)
		if !bytes.Equal(a, b) {
			t.Fatalf("cuts %v: merged report differs from whole:\n%s\n%s", cuts, a, b)
		}
	}
}

func TestMergeValidation(t *testing.T) {
	if _, err := Merge(); err == nil {
		t.Fatal("empty merge accepted")
	}
	a, b := buildPart(t, 0, 5, 10), buildPart(t, 5, 10, 10)

	gap := buildPart(t, 6, 10, 10)
	if _, err := Merge(a, gap); err == nil || !strings.Contains(err.Error(), "gap or overlap") {
		t.Fatalf("gap accepted: %v", err)
	}
	overlap := buildPart(t, 4, 10, 10)
	if _, err := Merge(a, overlap); err == nil {
		t.Fatal("overlap accepted")
	}

	alien := buildPart(t, 5, 10, 10)
	alien.Seed = 77
	if _, err := Merge(a, alien); err == nil || !strings.Contains(err.Error(), "different experiments") {
		t.Fatalf("cross-experiment merge accepted: %v", err)
	}

	drift := buildPart(t, 5, 10, 10)
	drift.Stream = "future-generator/9"
	if _, err := Merge(a, drift); err == nil || !strings.Contains(err.Error(), "different generators") {
		t.Fatalf("cross-stream merge accepted: %v", err)
	}

	respec := buildPart(t, 5, 10, 10)
	respec.Spec = json.RawMessage(`{"kind":"single","strategy":"IM"}`)
	if _, err := Merge(a, respec); err == nil || !strings.Contains(err.Error(), "different specs") {
		t.Fatalf("cross-spec merge accepted: %v", err)
	}

	// Specs that differ only in whitespace are one spec: the raw bytes
	// differ, the compacted JSON does not.
	spaced := buildPart(t, 5, 10, 10)
	spaced.Spec = json.RawMessage("{ \"kind\": \"single\",\n  \"strategy\": \"MO\" }")
	if _, err := Merge(a, spaced); err != nil {
		t.Fatalf("specs differing only in whitespace refused: %v", err)
	}

	missing := buildPart(t, 5, 10, 10)
	delete(missing.Scalars, "sq")
	if _, err := Merge(a, missing); err == nil {
		t.Fatal("mismatched scalar keys accepted")
	}

	// A partial merge (not yet complete) is legal.
	part, err := Merge(b)
	if err != nil {
		t.Fatal(err)
	}
	if part.Complete() {
		t.Fatal("partial report claims completeness")
	}
	// The inputs must not be mutated by merging.
	before, _ := json.Marshal(a)
	if _, err := Merge(a, b); err != nil {
		t.Fatal(err)
	}
	after, _ := json.Marshal(a)
	if !bytes.Equal(before, after) {
		t.Fatal("merge mutated its input")
	}
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/parts.json"
	reports := []*Report{buildPart(t, 0, 3, 6), buildPart(t, 3, 6, 6)}
	if err := WriteFile(path, reports); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 {
		t.Fatalf("%d reports read", len(back))
	}
	merged, err := Merge(back...)
	if err != nil {
		t.Fatal(err)
	}
	if !merged.Complete() || merged.RunCount != 6 {
		t.Fatalf("merged file shards cover %d runs", merged.RunCount)
	}
	if _, err := ReadFile(dir + "/missing.json"); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestExtendRoundsEqualsWhole is the report-level resume guarantee:
// extending a round's report with later rounds — serialized and reloaded
// between rounds, as checkpoint/restore would — reproduces the whole
// run's report bit-for-bit, even when the rounds disagreed on TotalRuns
// (an adaptive driver stamps its cap until it knows the final count).
func TestExtendRoundsEqualsWhole(t *testing.T) {
	const total = 23
	whole := buildPart(t, 0, total, total)
	acc := buildPart(t, 0, 9, 64) // round cap, not the final count
	for _, cut := range [][2]int{{9, 16}, {16, total}} {
		next := buildPart(t, cut[0], cut[1], 64)
		// JSON round trip: rounds cross a process/host boundary.
		blob, err := json.Marshal(acc)
		if err != nil {
			t.Fatal(err)
		}
		var back Report
		if err := json.Unmarshal(blob, &back); err != nil {
			t.Fatal(err)
		}
		acc = &back
		if err := acc.Extend(next); err != nil {
			t.Fatal(err)
		}
	}
	if acc.RunStart != 0 || acc.RunCount != total {
		t.Fatalf("extended coverage [%d,%d)", acc.RunStart, acc.RunStart+acc.RunCount)
	}
	acc.TotalRuns = total // the adaptive driver's final stamp
	acc.ElapsedMS = whole.ElapsedMS
	a, _ := json.Marshal(whole)
	b, _ := json.Marshal(acc)
	if !bytes.Equal(a, b) {
		t.Fatalf("extended report differs from whole:\n%s\n%s", b, a)
	}
}

func TestExtendValidation(t *testing.T) {
	acc := buildPart(t, 0, 5, 10)
	if err := acc.Extend(); err != nil {
		t.Fatal(err)
	}
	before, _ := json.Marshal(acc)
	if err := acc.Extend(buildPart(t, 7, 10, 10)); err == nil {
		t.Fatal("gap accepted")
	}
	after, _ := json.Marshal(acc)
	if !bytes.Equal(before, after) {
		t.Fatal("failed Extend mutated the receiver")
	}
	next := buildPart(t, 5, 10, 10)
	nextBefore, _ := json.Marshal(next)
	if err := acc.Extend(next); err != nil {
		t.Fatal(err)
	}
	if nextAfter, _ := json.Marshal(next); !bytes.Equal(nextBefore, nextAfter) {
		t.Fatal("Extend mutated its argument")
	}
	if !acc.Complete() {
		t.Fatal("extended report incomplete")
	}
}

func TestTargetSE(t *testing.T) {
	rep := buildPart(t, 0, 9, 9)
	// Series target: the worst per-slot SE. Runs r contribute [r, 2r], so
	// slot 1 has twice slot 0's spread.
	track, err := rep.SeriesStats(SeriesTracking)
	if err != nil {
		t.Fatal(err)
	}
	worst := track.StdErr()[1]
	if got, err := rep.TargetSE(engine.Target{Series: SeriesTracking, SE: 1}); err != nil || got != worst {
		t.Fatalf("series TargetSE = %v, %v; want %v", got, err, worst)
	}
	// Both names empty defaults to the tracking series.
	if got, err := rep.TargetSE(engine.Target{SE: 1}); err != nil || got != worst {
		t.Fatalf("default TargetSE = %v, %v; want %v", got, err, worst)
	}
	sq, err := rep.ScalarStats("sq")
	if err != nil {
		t.Fatal(err)
	}
	if got, err := rep.TargetSE(engine.Target{Scalar: "sq", SE: 1}); err != nil || got != sq.StdErr() {
		t.Fatalf("scalar TargetSE = %v, %v; want %v", got, err, sq.StdErr())
	}
	if _, err := rep.TargetSE(engine.Target{Series: "nope", SE: 1}); err == nil {
		t.Fatal("unknown series accepted")
	}
	if _, err := rep.TargetSE(engine.Target{Scalar: "nope", SE: 1}); err == nil {
		t.Fatal("unknown scalar accepted")
	}
}

// TestMergeEmptyShardAnyOrder reproduces the Runs < shard-count case: an
// empty shard [s,s) shares its RunStart with the nonempty shard starting
// at s, and Merge must accept the parts in ANY order (the documented
// contract), not only when the empty one happens to come first.
func TestMergeEmptyShardAnyOrder(t *testing.T) {
	// Shard ranges of Runs=2 over Count=3: [0,0), [0,1), [1,2).
	parts := []*Report{
		buildPart(t, 0, 0, 2),
		buildPart(t, 0, 1, 2),
		buildPart(t, 1, 2, 2),
	}
	whole := buildPart(t, 0, 2, 2)
	for _, order := range [][]int{{0, 1, 2}, {1, 0, 2}, {2, 1, 0}, {1, 2, 0}} {
		shuffled := make([]*Report, len(parts))
		for i, j := range order {
			shuffled[i] = parts[j]
		}
		merged, err := Merge(shuffled...)
		if err != nil {
			t.Fatalf("order %v: %v", order, err)
		}
		if !merged.Complete() {
			t.Fatalf("order %v: merged incomplete", order)
		}
		merged.ElapsedMS = whole.ElapsedMS
		a, _ := json.Marshal(whole)
		b, _ := json.Marshal(merged)
		if !bytes.Equal(a, b) {
			t.Fatalf("order %v: merged differs from whole:\n%s\n%s", order, b, a)
		}
	}
}
