package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"chaffmec/internal/coordinator"
	"chaffmec/internal/engine"
	"chaffmec/internal/figures"
	"chaffmec/internal/report"
	"chaffmec/internal/scenario"
)

func TestSlug(t *testing.T) {
	if got := slug("spatially&temporally-skewed"); strings.ContainsAny(got, "& ") {
		t.Fatalf("slug = %q", got)
	}
	if got := slug("non-skewed"); got != "non-skewed" {
		t.Fatalf("slug = %q", got)
	}
}

func TestMaxOf(t *testing.T) {
	if got := maxOf([]float64{0.1, 0.9, 0.4}); got != 0.9 {
		t.Fatalf("maxOf = %v", got)
	}
}

func TestRunnerSyntheticFigures(t *testing.T) {
	r := &runner{
		cfg:    figures.Config{Runs: 10, Horizon: 20, Cells: 10, Seed: 1},
		outDir: t.TempDir(),
		nodes:  40,
		topK:   1,
		seed:   3,
	}
	for name, step := range map[string]func() error{
		"fig4": r.fig4,
		"kl":   r.tableKL,
		"fig5": r.fig5,
		"fig6": r.fig6,
		"eq11": r.eq11,
	} {
		if err := step(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	// CSV artifacts land in outDir.
	matches, err := filepath.Glob(filepath.Join(r.outDir, "*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) < 5 {
		t.Fatalf("only %d CSVs written", len(matches))
	}
}

func TestRunnerTraceFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("trace lab build")
	}
	r := &runner{
		cfg:    figures.Config{Runs: 10, Horizon: 20, Cells: 10, Seed: 1},
		outDir: t.TempDir(),
		nodes:  40,
		topK:   1,
		seed:   3,
	}
	if err := r.fig8(); err != nil {
		t.Fatal(err)
	}
	if err := r.fig9a(); err != nil {
		t.Fatal(err)
	}
	// The lab is cached across steps.
	if r.lab == nil {
		t.Fatal("trace lab not cached")
	}
}

func TestRunScenariosFromJSONConfig(t *testing.T) {
	// The acceptance path of the scenario layer: two workload kinds that
	// exist nowhere in the figure code — a multi-user population facing
	// the strategy-aware eavesdropper, and a mixed-strategy chaff
	// population — run purely from a JSON config entry.
	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "scenarios.json")
	cfg := `{
		"defaults": {"runs": 25, "horizon": 15, "seed": 6},
		"scenarios": [
			{"name": "multiuser-advanced", "kind": "multiuser",
			 "model": "spatially-skewed", "other_users": 3,
			 "strategy": "MO", "advanced": true},
			{"name": "mixed-population", "kind": "mixed",
			 "strategies": ["IM", "MO", "RMO"], "num_chaffs": 2},
			{"name": "big-grid", "kind": "single", "model": "grid",
			 "grid_w": 10, "grid_h": 10, "strategy": "IM"}
		]
	}`
	if err := os.WriteFile(cfgPath, []byte(cfg), 0o644); err != nil {
		t.Fatal(err)
	}
	outDir := filepath.Join(dir, "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := runScenarios(context.Background(), cfgPath, outDir, "", nil); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"scenario_multiuser-advanced.csv", "scenario_mixed-population.csv", "scenario_big-grid.csv"} {
		if _, err := os.Stat(filepath.Join(outDir, want)); err != nil {
			t.Fatalf("missing CSV %s: %v", want, err)
		}
	}
	if err := runScenarios(context.Background(), filepath.Join(dir, "missing.json"), outDir, "", nil); err == nil {
		t.Fatal("missing config accepted")
	}
}

func TestRunScenariosDeduplicatesCSVNames(t *testing.T) {
	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "dup.json")
	// Two bare entries of the same kind default to the same name; both
	// artifacts must survive.
	cfg := `{
		"defaults": {"runs": 5, "horizon": 5, "seed": 1},
		"scenarios": [
			{"kind": "single", "strategy": "MO"},
			{"kind": "single", "strategy": "IM"}
		]
	}`
	if err := os.WriteFile(cfgPath, []byte(cfg), 0o644); err != nil {
		t.Fatal(err)
	}
	outDir := filepath.Join(dir, "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := runScenarios(context.Background(), cfgPath, outDir, "", nil); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"scenario_single.csv", "scenario_single_2.csv"} {
		if _, err := os.Stat(filepath.Join(outDir, want)); err != nil {
			t.Fatalf("missing CSV %s: %v", want, err)
		}
	}
}

func TestParseShard(t *testing.T) {
	sh, err := parseShard("1/3")
	if err != nil || sh.Index != 1 || sh.Count != 3 {
		t.Fatalf("parseShard(1/3) = %+v, %v", sh, err)
	}
	for _, bad := range []string{"", "x", "3/2", "-1/2", "1of2", "1/2x3", "0/2 8", "1/2/3"} {
		if _, err := parseShard(bad); err == nil {
			t.Fatalf("shard %q accepted", bad)
		}
	}
}

// TestShardAndMergeWorkflow drives the CLI path end to end: two shard
// invocations write partial Report files, -merge combines them, and the
// merged result equals an unsharded run of the same config bit-for-bit
// (ignoring timing).
func TestShardAndMergeWorkflow(t *testing.T) {
	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "scenarios.json")
	cfg := `{
		"defaults": {"runs": 20, "horizon": 10, "seed": 3},
		"scenarios": [
			{"name": "sm-single", "kind": "single", "strategy": "MO"},
			{"name": "sm-mec", "kind": "mecbatch", "model": "grid",
			 "grid_w": 3, "grid_h": 3, "strategy": "MO"}
		]
	}`
	if err := os.WriteFile(cfgPath, []byte(cfg), 0o644); err != nil {
		t.Fatal(err)
	}
	var parts []string
	for i := 0; i < 2; i++ {
		path := filepath.Join(dir, fmt.Sprintf("part%d.json", i))
		if err := runShard(context.Background(), cfgPath, engine.Shard{Index: i, Count: 2}, path); err != nil {
			t.Fatal(err)
		}
		parts = append(parts, path)
	}
	mergedPath := filepath.Join(dir, "merged.json")
	outDir := filepath.Join(dir, "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := mergeReports(parts, mergedPath, outDir); err != nil {
		t.Fatal(err)
	}
	wholePath := filepath.Join(dir, "whole.json")
	if err := runScenarios(context.Background(), cfgPath, t.TempDir(), wholePath, nil); err != nil {
		t.Fatal(err)
	}
	merged, err := report.ReadFile(mergedPath)
	if err != nil {
		t.Fatal(err)
	}
	whole, err := report.ReadFile(wholePath)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged) != 2 || len(whole) != 2 {
		t.Fatalf("report counts: merged %d, whole %d", len(merged), len(whole))
	}
	for i := range whole {
		merged[i].ElapsedMS = 0
		whole[i].ElapsedMS = 0
		a, _ := json.Marshal(merged[i])
		b, _ := json.Marshal(whole[i])
		if string(a) != string(b) {
			t.Fatalf("scenario %d: merged != whole:\n%s\n%s", i, a, b)
		}
	}
	// The merge also rendered CSVs for the complete scenarios.
	for _, want := range []string{"scenario_sm-single.csv", "scenario_sm-mec.csv"} {
		if _, err := os.Stat(filepath.Join(outDir, want)); err != nil {
			t.Fatalf("missing CSV %s: %v", want, err)
		}
	}
	// A lone shard merges to an INCOMPLETE report without rendering.
	if err := mergeReports(parts[:1], "", outDir); err != nil {
		t.Fatal(err)
	}
	if err := mergeReports(nil, "", outDir); err == nil {
		t.Fatal("merge without files accepted")
	}
}

// TestMergeDuplicateScenarioNames shards a config whose entries share
// the same default name: partials must group by config-entry position,
// not just the scenario header.
func TestMergeDuplicateScenarioNames(t *testing.T) {
	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "dup.json")
	cfg := `{
		"defaults": {"runs": 10, "horizon": 6, "seed": 2},
		"scenarios": [
			{"kind": "single", "strategy": "MO"},
			{"kind": "single", "strategy": "IM"}
		]
	}`
	if err := os.WriteFile(cfgPath, []byte(cfg), 0o644); err != nil {
		t.Fatal(err)
	}
	var parts []string
	for i := 0; i < 2; i++ {
		path := filepath.Join(dir, fmt.Sprintf("p%d.json", i))
		if err := runShard(context.Background(), cfgPath, engine.Shard{Index: i, Count: 2}, path); err != nil {
			t.Fatal(err)
		}
		parts = append(parts, path)
	}
	mergedPath := filepath.Join(dir, "merged.json")
	if err := mergeReports(parts, mergedPath, t.TempDir()); err != nil {
		t.Fatal(err)
	}
	merged, err := report.ReadFile(mergedPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged) != 2 {
		t.Fatalf("%d merged reports, want 2", len(merged))
	}
	for i, rep := range merged {
		if !rep.Complete() {
			t.Fatalf("entry %d incomplete after merge", i)
		}
	}
}

// TestAdaptiveScenarioCLI runs a precision-block config through the
// scenario path: the emitted envelope must be adaptively finalized
// (TotalRuns = the chosen count inside [min_runs, max_runs]).
func TestAdaptiveScenarioCLI(t *testing.T) {
	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "adaptive.json")
	cfg := `{
		"defaults": {"runs": 64, "horizon": 10, "seed": 11},
		"scenarios": [
			{"name": "ad-single", "kind": "single", "strategy": "MO",
			 "precision": {"target_se": 1e-9, "min_runs": 8, "max_runs": 24}}
		]
	}`
	if err := os.WriteFile(cfgPath, []byte(cfg), 0o644); err != nil {
		t.Fatal(err)
	}
	repPath := filepath.Join(dir, "rep.json")
	if err := runScenarios(context.Background(), cfgPath, t.TempDir(), repPath, nil); err != nil {
		t.Fatal(err)
	}
	reps, err := report.ReadFile(repPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 1 || !reps[0].Complete() {
		t.Fatalf("adaptive envelope: %+v", reps)
	}
	if n := reps[0].TotalRuns; n < 8 || n > 24 {
		t.Fatalf("adaptive run count %d outside [8,24]", n)
	}
	// The -target-se flag block applies to entries without their own.
	cfg2 := `{
		"defaults": {"runs": 64, "horizon": 10, "seed": 11},
		"scenarios": [{"name": "flag-single", "kind": "single", "strategy": "MO"}]
	}`
	cfg2Path := filepath.Join(dir, "flag.json")
	if err := os.WriteFile(cfg2Path, []byte(cfg2), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runScenarios(context.Background(), cfg2Path, t.TempDir(), repPath,
		&scenario.Precision{TargetSE: 1e-9, MinRuns: 4, MaxRuns: 12}); err != nil {
		t.Fatal(err)
	}
	if reps, err = report.ReadFile(repPath); err != nil {
		t.Fatal(err)
	}
	if n := reps[0].TotalRuns; len(reps) != 1 || n < 4 || n > 12 {
		t.Fatalf("flag-imposed precision: %+v", reps[0])
	}
}

// TestResumeWorkflowCLI is the CLI-layer bitwise resume guarantee: a
// partial envelope file (here: shard 0/2, exactly what an interrupted
// run checkpoints) resumed through -resume — with the config, and again
// from the spec echoes alone — equals the unsharded run bit-for-bit.
func TestResumeWorkflowCLI(t *testing.T) {
	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "scenarios.json")
	cfg := `{
		"defaults": {"runs": 20, "horizon": 10, "seed": 3},
		"scenarios": [
			{"name": "rs-single", "kind": "single", "strategy": "MO"},
			{"name": "rs-mec", "kind": "mecbatch", "model": "grid",
			 "grid_w": 3, "grid_h": 3, "strategy": "MO"}
		]
	}`
	if err := os.WriteFile(cfgPath, []byte(cfg), 0o644); err != nil {
		t.Fatal(err)
	}
	wholePath := filepath.Join(dir, "whole.json")
	if err := runScenarios(context.Background(), cfgPath, t.TempDir(), wholePath, nil); err != nil {
		t.Fatal(err)
	}
	whole, err := report.ReadFile(wholePath)
	if err != nil {
		t.Fatal(err)
	}

	compare := func(path string) {
		t.Helper()
		resumed, err := report.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(resumed) != len(whole) {
			t.Fatalf("%d resumed envelopes, want %d", len(resumed), len(whole))
		}
		for i := range whole {
			a, b := *whole[i], *resumed[i]
			a.ElapsedMS, b.ElapsedMS = 0, 0
			ab, _ := json.Marshal(&a)
			bb, _ := json.Marshal(&b)
			if string(ab) != string(bb) {
				t.Fatalf("scenario %d: resumed != whole:\n%s\n%s", i, bb, ab)
			}
		}
	}

	// localResume is the single-process per-entry driver realMain wires
	// in when no fleet flag is given.
	localResume := func(job scenario.Job, from *report.Report, name string) (*report.Report, error) {
		return scenario.ResumeJob(context.Background(), job, from, nil)
	}

	// With the config.
	ckptPath := filepath.Join(dir, "ckpt.json")
	if err := runShard(context.Background(), cfgPath, engine.Shard{Index: 0, Count: 2}, ckptPath); err != nil {
		t.Fatal(err)
	}
	outPath := filepath.Join(dir, "resumed.json")
	if err := resumeScenarios(ckptPath, cfgPath, t.TempDir(), outPath, nil, localResume); err != nil {
		t.Fatal(err)
	}
	compare(outPath)

	// From the spec echoes alone (checkpoint shipped to another host),
	// writing back to the checkpoint file itself.
	if err := runShard(context.Background(), cfgPath, engine.Shard{Index: 0, Count: 2}, ckptPath); err != nil {
		t.Fatal(err)
	}
	if err := resumeScenarios(ckptPath, "", t.TempDir(), "", nil, localResume); err != nil {
		t.Fatal(err)
	}
	compare(ckptPath)

	// Resumed over a fleet: the coordinator extends the same checkpoint
	// distributed, to the same bytes.
	if err := runShard(context.Background(), cfgPath, engine.Shard{Index: 0, Count: 2}, ckptPath); err != nil {
		t.Fatal(err)
	}
	fleet := coordinator.StaticOf(coordinator.InProcessFleet(2)...)
	if err := resumeScenarios(ckptPath, cfgPath, t.TempDir(), "", nil,
		fleetResumeOne(context.Background(), fleet)); err != nil {
		t.Fatal(err)
	}
	compare(ckptPath)

	// A checkpoint with more envelopes than the config has entries is
	// rejected; a missing checkpoint file errors.
	if err := resumeScenarios(ckptPath, filepath.Join(dir, "missing.json"), t.TempDir(), "", nil, localResume); err == nil {
		t.Fatal("missing config accepted")
	}
	if err := resumeScenarios(filepath.Join(dir, "missing.json"), "", t.TempDir(), "", nil, localResume); err == nil {
		t.Fatal("missing checkpoint accepted")
	}
}

// TestDistributedFlagValidation: the coordinator flags reject the
// combinations distribution cannot honor, loudly.
func TestDistributedFlagValidation(t *testing.T) {
	cases := []struct {
		name                     string
		workers                  int
		connect, registry, shard string
		resume                   string
		merge                    bool
		scen                     string
	}{
		{name: "both fleets", workers: 2, connect: "http://x", scen: "s.json"},
		{name: "workers and registry", workers: 2, registry: ":9000", scen: "s.json"},
		{name: "connect and registry", connect: "http://x", registry: ":9000", scen: "s.json"},
		{name: "no scenario", workers: 2},
		{name: "with shard", workers: 2, scen: "s.json", shard: "0/2"},
		{name: "with merge", workers: 2, scen: "s.json", merge: true},
	}
	for _, tc := range cases {
		if err := distributedFlagErr(tc.workers, tc.connect, tc.registry, tc.shard, tc.resume, tc.merge, tc.scen); err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
	}
	if err := distributedFlagErr(4, "", "", "", "", false, "s.json"); err != nil {
		t.Fatalf("valid -workers rejected: %v", err)
	}
	if err := distributedFlagErr(0, "http://a,http://b", "", "", "", false, "s.json"); err != nil {
		t.Fatalf("valid -connect rejected: %v", err)
	}
	if err := distributedFlagErr(0, "", ":9000", "", "", false, "s.json"); err != nil {
		t.Fatalf("valid -registry rejected: %v", err)
	}
	// -resume distributes fine now (the coordinator extends checkpoints
	// over the fleet), with or without the config.
	if err := distributedFlagErr(2, "", "", "", "c.json", false, "s.json"); err != nil {
		t.Fatalf("distributed -resume rejected: %v", err)
	}
	if err := distributedFlagErr(2, "", "", "", "c.json", false, ""); err != nil {
		t.Fatalf("distributed -resume without config rejected: %v", err)
	}
}

// TestBuildFleet: fleet construction honors -workers/-connect and the
// -crash-worker fault injection lands on exactly one subprocess.
func TestBuildFleet(t *testing.T) {
	fleet, err := buildFleet(3, "", -1)
	if err != nil || len(fleet) != 3 {
		t.Fatalf("subprocess fleet = %d transports, %v", len(fleet), err)
	}
	fleet, err = buildFleet(4, "", 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range fleet {
		sub, ok := tr.(*coordinator.Subprocess)
		if !ok {
			t.Fatalf("worker %d: %T", i, tr)
		}
		crashed := len(sub.Env) == 1 && strings.HasPrefix(sub.Env[0], coordinator.EnvCrash+"=")
		if crashed != (i == 2) {
			t.Fatalf("worker %d env = %v", i, sub.Env)
		}
	}
	fleet, err = buildFleet(0, " http://a:1 ,, http://b:2 ", -1)
	if err != nil || len(fleet) != 2 {
		t.Fatalf("http fleet = %d transports, %v", len(fleet), err)
	}
	if _, err := buildFleet(0, "", -1); err == nil {
		t.Fatal("empty fleet accepted")
	}
	if _, err := buildFleet(2, "", 5); err == nil {
		t.Fatal("crash-worker outside fleet accepted")
	}
	if _, err := buildFleet(0, "http://a", 0); err == nil {
		t.Fatal("crash-worker with -connect accepted")
	}
}

// TestDaemonRegistryEndToEnd wires the CLI's persistent-worker mode
// against a live registry entirely in process: daemonMain listens on
// an ephemeral port, derives its advertised URL from the listener,
// registers over HTTP with its weight, and serves the dispatches of a
// campaign run through the elastic fleet — whose merged report equals
// the single-process run bit for bit.
func TestDaemonRegistryEndToEnd(t *testing.T) {
	reg := coordinator.NewRegistry(coordinator.RegistryOptions{
		Heartbeat: 20 * time.Millisecond,
	})
	defer reg.Close()
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	var dErr error
	go func() {
		defer wg.Done()
		dErr = daemonMain(ctx, srv.URL, "", "", 2.5)
	}()
	defer func() {
		cancel()
		wg.Wait()
		if dErr != nil {
			t.Errorf("daemonMain: %v", dErr)
		}
	}()

	waitCtx, waitCancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer waitCancel()
	if err := reg.WaitFor(waitCtx, 1); err != nil {
		t.Fatal(err)
	}
	m := reg.Members()
	if len(m) != 1 || m[0].Weight != 2.5 {
		t.Fatalf("registered member = %+v", m)
	}

	sp := scenario.Spec{Name: "e2e", Kind: "single", Strategy: "MO", Horizon: 10, Runs: 20, Seed: 11}
	got, err := coordinator.RunFleet(ctx, scenario.Job{Spec: sp}, reg, coordinator.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := scenario.RunJob(context.Background(), scenario.Job{Spec: sp})
	if err != nil {
		t.Fatal(err)
	}
	a, b := *want, *got
	a.ElapsedMS, b.ElapsedMS = 0, 0
	ja, _ := json.Marshal(&a)
	jb, _ := json.Marshal(&b)
	if string(ja) != string(jb) {
		t.Fatal("daemon-served campaign differs from the single-process run")
	}

	if _, _, err := registryFleet(context.Background(), "127.0.0.1:0", 0); err == nil {
		t.Fatal("-fleet-min 0 accepted")
	}
}

// TestRunScenariosDistributed drives the CLI's coordinator path with an
// in-process fleet and checks the merged envelopes equal the
// single-process runScenarios output bit-for-bit (modulo wall clock).
func TestRunScenariosDistributed(t *testing.T) {
	dir := t.TempDir()
	cfg := filepath.Join(dir, "scen.json")
	config := `{
	  "defaults": {"runs": 40, "horizon": 10, "seed": 3},
	  "scenarios": [{"name": "d1", "kind": "single", "strategy": "MO"}]
	}`
	if err := os.WriteFile(cfg, []byte(config), 0o644); err != nil {
		t.Fatal(err)
	}
	whole := filepath.Join(dir, "whole.json")
	if err := runScenarios(context.Background(), cfg, t.TempDir(), whole, nil); err != nil {
		t.Fatal(err)
	}
	dist := filepath.Join(dir, "dist.json")
	if err := runScenariosDistributed(context.Background(), cfg, t.TempDir(), dist,
		nil, coordinator.StaticOf(coordinator.InProcessFleet(3)...)); err != nil {
		t.Fatal(err)
	}
	a, err := report.ReadFile(whole)
	if err != nil {
		t.Fatal(err)
	}
	b, err := report.ReadFile(dist)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 1 || len(b) != 1 {
		t.Fatalf("envelope counts %d vs %d", len(a), len(b))
	}
	a[0].ElapsedMS, b[0].ElapsedMS = 0, 0
	ja, _ := json.Marshal(a[0])
	jb, _ := json.Marshal(b[0])
	if string(ja) != string(jb) {
		t.Fatal("distributed envelopes differ from single-process run")
	}
}
