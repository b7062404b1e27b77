package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"chaffmec/internal/chaff"
	"chaffmec/internal/engine"
	"chaffmec/internal/markov"
	"chaffmec/internal/report"
)

// marshalStable marshals a report with its timing zeroed, so bit-for-bit
// comparisons ignore the only legitimately varying field.
func marshalStable(t *testing.T, rep *report.Report) []byte {
	t.Helper()
	cl := *rep
	cl.ElapsedMS = 0
	blob, err := json.Marshal(&cl)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// runShards executes the spec as `count` complementary shard jobs and
// merges the emitted reports (after a JSON round trip, exactly as the
// cross-process workflow would).
func runShards(t *testing.T, sp Spec, count int) *report.Report {
	t.Helper()
	var parts []*report.Report
	for i := 0; i < count; i++ {
		rep, err := RunJob(context.Background(), Job{Spec: sp, Shard: engine.Shard{Index: i, Count: count}})
		if err != nil {
			t.Fatal(err)
		}
		blob, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		var back report.Report
		if err := json.Unmarshal(blob, &back); err != nil {
			t.Fatal(err)
		}
		parts = append(parts, &back)
	}
	merged, err := report.Merge(parts...)
	if err != nil {
		t.Fatal(err)
	}
	if !merged.Complete() {
		t.Fatalf("merged report covers [%d,%d) of %d", merged.RunStart, merged.RunStart+merged.RunCount, merged.TotalRuns)
	}
	return merged
}

// TestShardMergeEqualsWhole is the acceptance check of the Job/Report
// redesign: for every kind with a pinned or representative scenario,
// running 2 (and 3) shards and merging the serialized partials
// reproduces the single-process Report bit-for-bit.
func TestShardMergeEqualsWhole(t *testing.T) {
	specs := []Spec{
		// The internal/sim pinned regression scenario (see sim/regress_test).
		{Name: "pin-single", Kind: "single", Model: "spatially-skewed", ModelSeed: 99,
			Strategy: "MO", NumChaffs: 2, Horizon: 8, Runs: 32, Seed: 12345, Workers: 3},
		// The internal/sim multi-user pinned regression scenario.
		{Name: "pin-multiuser", Kind: "multiuser", Model: "spatially-skewed", ModelSeed: 1,
			OtherUsers: 2, Strategy: "MO", NumChaffs: 1, Horizon: 8, Runs: 32, Seed: 12345, Workers: 3},
		{Name: "mixed", Kind: "mixed", Strategies: []string{"IM", "MO"}, Horizon: 12, Runs: 25, Seed: 3},
		{Name: "hetero", Kind: "hetero", Strategy: "MO",
			Population: []Member{{Strategy: "IM", Count: 2}, {Count: 1}}, Horizon: 10, Runs: 21, Seed: 4},
		// mecbatch also exercises the scalar (cost curve) merges.
		{Name: "mec", Kind: "mecbatch", Model: "grid", GridW: 4, GridH: 4,
			Strategy: "MO", NumChaffs: 2, Horizon: 15, Runs: 26, Seed: 5},
	}
	for _, sp := range specs {
		t.Run(sp.Name, func(t *testing.T) {
			whole, err := RunJob(context.Background(), Job{Spec: sp})
			if err != nil {
				t.Fatal(err)
			}
			want := marshalStable(t, whole)
			for _, count := range []int{2, 3} {
				merged := runShards(t, sp, count)
				if got := marshalStable(t, merged); !reflect.DeepEqual(want, got) {
					t.Fatalf("%d shards: merged report differs from whole run:\n%s\n%s", count, got, want)
				}
			}
		})
	}
}

// TestJobMatchesSimPins replays the sim regression pins through the Job
// API: the registry path must aggregate the exact same streams.
func TestJobMatchesSimPins(t *testing.T) {
	rep, err := RunJob(context.Background(), Job{Spec: Spec{
		Kind: "single", Model: "spatially-skewed", ModelSeed: 99,
		Strategy: "MO", NumChaffs: 2, Horizon: 8, Runs: 32, Seed: 12345, Workers: 3,
	}})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := rep.Summary()
	if err != nil {
		t.Fatal(err)
	}
	// The pinned values from internal/sim/regress_test.go (MO-basic).
	wantPerSlot := []float64{0.21875, 0.09375000000000003, 0.09375000000000001, 0.0625, 0.0625, 0.03125, 0, 0.03125}
	const wantOverall, tol = 0.07421875, 1e-12
	for i := range wantPerSlot {
		if math.Abs(sum.PerSlot[i]-wantPerSlot[i]) > tol {
			t.Fatalf("PerSlot[%d] = %v, want %v", i, sum.PerSlot[i], wantPerSlot[i])
		}
	}
	if math.Abs(sum.Overall-wantOverall) > tol {
		t.Fatalf("Overall = %v, want %v", sum.Overall, wantOverall)
	}
	if sum.Runs != 32 || rep.TotalRuns != 32 || !rep.Complete() {
		t.Fatalf("coverage: runs %d, total %d", sum.Runs, rep.TotalRuns)
	}
}

// TestJobCappedGammaMatchesPlain: the runner derives OO's capped Γ for
// the advanced eavesdropper. Its reports must equal, bit for bit, those
// of the same specs with the full Γ injected through Spec.Gamma: the
// advanced-oo benchmark shape (single kind), ROO, and the multiuser kind
// where each cap is a max over several users.
func TestJobCappedGammaMatchesPlain(t *testing.T) {
	single := Spec{Kind: "single", Model: "spatially-skewed", Cells: 10, ModelSeed: 2017,
		Strategy: "OO", NumChaffs: 1, Advanced: true, Horizon: 100, Runs: 64, Seed: 3, Workers: 2}
	roo := single
	roo.Strategy, roo.NumChaffs = "ROO", 2
	multi := single
	multi.Kind, multi.OtherUsers, multi.Horizon = "multiuser", 3, 40
	for _, sp := range []Spec{single, roo, multi} {
		chain, err := buildChain(sp.Model, sp)
		if err != nil {
			t.Fatal(err)
		}
		full, err := chaff.GammaByName(sp.Strategy, chain)
		if err != nil {
			t.Fatal(err)
		}
		capped, err := RunJob(context.Background(), Job{Spec: sp})
		if err != nil {
			t.Fatal(err)
		}
		plain := sp
		plain.Gamma = func(u markov.Trajectory, _ int) (markov.Trajectory, error) { return full(u) }
		want, err := RunJob(context.Background(), Job{Spec: plain})
		if err != nil {
			t.Fatal(err)
		}
		if string(marshalStable(t, capped)) != string(marshalStable(t, want)) {
			t.Fatalf("%s/%s: capped Γ report differs from the full Γ's", sp.Kind, sp.Strategy)
		}
	}
}

// TestRunJobCancel proves cancellation crosses the scenario layer into
// the engine: a job cancelled mid-run returns context.Canceled promptly.
func TestRunJobCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	begin := time.Now()
	_, err := RunJob(ctx, Job{Spec: Spec{
		Kind: "single", Strategy: "MO", Horizon: 200, Runs: 5_000_000, Seed: 1,
	}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(begin); elapsed > 10*time.Second {
		t.Fatalf("cancelled job still took %v", elapsed)
	}
}

func TestRunJobValidation(t *testing.T) {
	if _, err := RunJob(context.Background(), Job{}); err == nil {
		t.Fatal("empty kind accepted")
	}
	if _, err := RunJob(context.Background(), Job{Spec: Spec{Kind: "nope"}}); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, err := RunJob(context.Background(), Job{
		Spec:  Spec{Kind: "single", Strategy: "MO", Runs: 4, Horizon: 5},
		Shard: engine.Shard{Index: 3, Count: 2},
	}); err == nil {
		t.Fatal("invalid shard accepted")
	}
}

// TestReportProvenance checks the envelope carries what a foreign
// process needs to trust and reproduce the partial.
func TestReportProvenance(t *testing.T) {
	sp := Spec{Kind: "single", Strategy: "IM", Horizon: 6, Runs: 10, Seed: 8}
	rep, err := RunJob(context.Background(), Job{Spec: sp, Shard: engine.Shard{Index: 1, Count: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Name != "single" || rep.Kind != "single" || rep.Seed != 8 || rep.Horizon != 6 {
		t.Fatalf("header: %+v", rep)
	}
	if rep.TotalRuns != 10 || rep.RunStart != 5 || rep.RunCount != 5 || rep.Complete() {
		t.Fatalf("coverage: %+v", rep)
	}
	if rep.Stream == "" || rep.ElapsedMS < 0 {
		t.Fatalf("provenance: stream %q elapsed %v", rep.Stream, rep.ElapsedMS)
	}
	var spec Spec
	if err := json.Unmarshal(rep.Spec, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.Strategy != "IM" || spec.Horizon != 6 {
		t.Fatalf("spec echo: %+v", spec)
	}
}

// TestPaperProtocolReportCodecs runs the paper protocol (MO against the
// ML eavesdropper, 1000 runs × T=100) and sends its Report through every
// encoding: each must decode back to the JSON envelope byte for byte,
// and binary+gzip, the one worker wire, must be at least 5× smaller than
// JSON.
func TestPaperProtocolReportCodecs(t *testing.T) {
	sp := Spec{Name: "paper-protocol", Kind: "single", Strategy: "MO", NumChaffs: 1, Horizon: 100, Runs: 1000, Seed: 1}
	rep, err := RunJob(context.Background(), Job{Spec: sp})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := report.Write(&want, []*report.Report{rep}); err != nil {
		t.Fatal(err)
	}
	size := map[report.Encoding]int{}
	for _, enc := range []report.Encoding{report.EncodingJSON, report.EncodingBinary, report.EncodingBinaryGzip} {
		var wire bytes.Buffer
		if err := report.WriteEncoded(&wire, []*report.Report{rep}, enc); err != nil {
			t.Fatal(err)
		}
		size[enc] = wire.Len()
		back, err := report.ReadReports(&wire)
		if err != nil {
			t.Fatalf("%s: decoding own envelope: %v", enc, err)
		}
		var got bytes.Buffer
		if err := report.Write(&got, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%s: decode is not bit-identical to the JSON envelope", enc)
		}
	}
	t.Logf("json %d B, binary %d B, binary+gzip %d B", size[report.EncodingJSON], size[report.EncodingBinary], size[report.EncodingBinaryGzip])
	if ratio := float64(size[report.EncodingJSON]) / float64(size[report.EncodingBinaryGzip]); ratio < 5 {
		t.Fatalf("binary+gzip is only %.2fx smaller than JSON, want >= 5x", ratio)
	}
}
