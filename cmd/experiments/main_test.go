package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"chaffmec/internal/coordinator"
	"chaffmec/internal/engine"
	"chaffmec/internal/figures"
	"chaffmec/internal/report"
	"chaffmec/internal/scenario"
	"chaffmec/internal/store"
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
	if err := runScenarios(context.Background(), cfgPath, outDir, "", nil, localFleet, localOptions); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"scenario_multiuser-advanced.csv", "scenario_mixed-population.csv", "scenario_big-grid.csv"} {
		if _, err := os.Stat(filepath.Join(outDir, want)); err != nil {
			t.Fatalf("missing CSV %s: %v", want, err)
		}
	}
	if err := runScenarios(context.Background(), filepath.Join(dir, "missing.json"), outDir, "", nil, localFleet, localOptions); err == nil {
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
	if err := runScenarios(context.Background(), cfgPath, outDir, "", nil, localFleet, localOptions); err != nil {
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
	if err := runScenarios(context.Background(), cfgPath, t.TempDir(), wholePath, nil, localFleet, localOptions); err != nil {
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
	if err := runScenarios(context.Background(), cfgPath, t.TempDir(), repPath, nil, localFleet, localOptions); err != nil {
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
		&scenario.Precision{TargetSE: 1e-9, MinRuns: 4, MaxRuns: 12}, localFleet, localOptions); err != nil {
		t.Fatal(err)
	}
	if reps, err = report.ReadFile(repPath); err != nil {
		t.Fatal(err)
	}
	if n := reps[0].TotalRuns; len(reps) != 1 || n < 4 || n > 12 {
		t.Fatalf("flag-imposed precision: %+v", reps[0])
	}
}

// tapTransport runs jobs in this process after showing each dispatch
// to hook; an error from hook fails the dispatch instead.
type tapTransport struct {
	coordinator.InProcess
	hook func(scenario.Job) error
}

func (t *tapTransport) Run(ctx context.Context, job scenario.Job) (*report.Report, error) {
	if err := t.hook(job); err != nil {
		return nil, err
	}
	return t.InProcess.Run(ctx, job)
}

// TestResumeWorkflowCLI is the CLI-layer bitwise resume guarantee: a
// -store run interrupted in its second scenario, re-run on the same
// store, runs only the second scenario and writes envelopes equal to
// the uninterrupted run's bit-for-bit — locally and over a fleet. The
// -resume flag of the file checkpoint is gone.
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
	if err := runScenarios(context.Background(), cfgPath, t.TempDir(), wholePath, nil, localFleet, localOptions); err != nil {
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

	st, err := store.Open(filepath.Join(dir, "bank"))
	if err != nil {
		t.Fatal(err)
	}
	opts := localOptions
	opts.Store = st

	// Interrupted: the first scenario finishes, the second is cancelled
	// at its first dispatch ("Ctrl-C").
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	interrupt := &tapTransport{hook: func(job scenario.Job) error {
		if job.Spec.Name == "rs-mec" {
			cancel()
			return context.Canceled
		}
		return nil
	}}
	partialPath := filepath.Join(dir, "partial.json")
	if err := runScenarios(ctx, cfgPath, t.TempDir(), partialPath, nil, coordinator.StaticOf(interrupt), opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: err = %v, want context.Canceled", err)
	}
	if partial, err := report.ReadFile(partialPath); err != nil || len(partial) != 1 {
		t.Fatalf("interrupted run wrote %d envelopes (err %v), want the finished scenario's", len(partial), err)
	}

	// Re-run on the same store: only the interrupted scenario runs.
	var mu sync.Mutex
	dispatched := map[string]int{}
	tap := &tapTransport{hook: func(job scenario.Job) error {
		mu.Lock()
		defer mu.Unlock()
		dispatched[job.Spec.Name]++
		return nil
	}}
	outPath := filepath.Join(dir, "resumed.json")
	if err := runScenarios(context.Background(), cfgPath, t.TempDir(), outPath, nil, coordinator.StaticOf(tap), opts); err != nil {
		t.Fatal(err)
	}
	compare(outPath)
	if dispatched["rs-single"] != 0 || dispatched["rs-mec"] == 0 {
		t.Fatalf("re-run dispatched %v, want only rs-mec", dispatched)
	}

	// Over a fleet, the same journal serves both scenarios.
	fleetPath := filepath.Join(dir, "fleet.json")
	if err := runScenarios(context.Background(), cfgPath, t.TempDir(), fleetPath, nil,
		coordinator.StaticOf(coordinator.InProcessFleet(2)...), coordinator.Options{Store: st}); err != nil {
		t.Fatal(err)
	}
	compare(fleetPath)

	cmd, stderr := experimentsCmd(t, "", "-resume", partialPath)
	if err := cmd.Run(); err == nil || !strings.Contains(stderr.String(), "flag provided but not defined: -resume") {
		t.Fatalf("-resume: err = %v\n%s", err, stderr)
	}
}

// TestDistributedFlagValidation: the coordinator flags reject the
// combinations distribution cannot honor, loudly.
func TestDistributedFlagValidation(t *testing.T) {
	cases := []struct {
		name                     string
		workers                  int
		connect, registry, shard string
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
		if err := distributedFlagErr(tc.workers, tc.connect, tc.registry, tc.shard, tc.merge, tc.scen); err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
	}
	if err := distributedFlagErr(4, "", "", "", false, "s.json"); err != nil {
		t.Fatalf("valid -workers rejected: %v", err)
	}
	if err := distributedFlagErr(0, "http://a,http://b", "", "", false, "s.json"); err != nil {
		t.Fatalf("valid -connect rejected: %v", err)
	}
	if err := distributedFlagErr(0, "", ":9000", "", false, "s.json"); err != nil {
		t.Fatalf("valid -registry rejected: %v", err)
	}
	// Fleet construction rejects bad selections before any worker starts.
	if f, err := connectFleet(" http://a:1 ,, http://b:2 "); err != nil || len(f.Members()) != 2 {
		t.Fatalf("-connect fleet = %v, %v", f, err)
	}
	if _, err := connectFleet(" , "); err == nil {
		t.Fatal("-connect naming no URL accepted")
	}
	if _, _, err := spawnWorkers(context.Background(), 2, 5); err == nil {
		t.Fatal("-crash-worker outside the fleet accepted")
	}
	cmd, stderr := experimentsCmd(t, "", "-scenario", "s.json", "-connect", "http://a", "-crash-worker", "0")
	if err := cmd.Run(); err == nil || !strings.Contains(stderr.String(), "-crash-worker injects") {
		t.Fatalf("-crash-worker with -connect: err = %v\n%s", err, stderr)
	}
}

// envRunMain makes this test binary run the experiments command
// instead of its tests, so the binary -workers starts its worker
// daemons from (os.Executable) is a working experiments binary.
const envRunMain = "EXPERIMENTS_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(envRunMain) == "1" {
		os.Exit(realMain())
	}
	os.Exit(m.Run())
}

// stderrWatch collects a command's stderr and closes seen once it
// contains want.
type stderrWatch struct {
	want string
	seen chan struct{}

	mu     sync.Mutex
	buf    bytes.Buffer
	closed bool
}

func (w *stderrWatch) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if !w.closed && strings.Contains(w.buf.String(), w.want) {
		w.closed = true
		close(w.seen)
	}
	return len(p), nil
}

func (w *stderrWatch) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// experimentsCmd runs the command (this binary under envRunMain) with
// args. Its worker daemons inherit its stderr pipe, so Wait returns
// only once every child has exited too; a child left behind holds the
// pipe open past WaitDelay and fails Wait with exec.ErrWaitDelay.
func experimentsCmd(t *testing.T, want string, args ...string) (*exec.Cmd, *stderrWatch) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	t.Cleanup(cancel)
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), envRunMain+"=1")
	// On timeout, SIGTERM: the command's own cleanup then reaps its
	// workers instead of orphaning them.
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = 20 * time.Second
	watch := &stderrWatch{want: want, seen: make(chan struct{})}
	cmd.Stderr = watch
	return cmd, watch
}

// TestWorkersSpawnDaemons runs the command itself with -workers N: the
// workers are N worker daemons started from this binary, all N join
// the fleet, and the merged report equals the single-process run's —
// also when one worker crashes mid-shard. Every worker has exited by
// the time the command has, also when the command is SIGTERMed
// mid-campaign.
func TestWorkersSpawnDaemons(t *testing.T) {
	dir := t.TempDir()
	cfg := filepath.Join(dir, "scen.json")
	config := `{
	  "defaults": {"runs": 60, "horizon": 10, "seed": 5},
	  "scenarios": [{"name": "spawn", "kind": "single", "strategy": "MO"}]
	}`
	if err := os.WriteFile(cfg, []byte(config), 0o644); err != nil {
		t.Fatal(err)
	}
	normalized := func(path string) string {
		t.Helper()
		reps, err := report.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, rep := range reps {
			rep.ElapsedMS = 0
		}
		blob, err := json.Marshal(reps)
		if err != nil {
			t.Fatal(err)
		}
		return string(blob)
	}
	whole := filepath.Join(dir, "whole.json")
	if err := runScenarios(context.Background(), cfg, t.TempDir(), whole, nil, localFleet, localOptions); err != nil {
		t.Fatal(err)
	}
	want := normalized(whole)

	joined := regexp.MustCompile(`worker (\S+) joined the fleet`)
	for _, tc := range []struct {
		workers int
		args    []string
	}{
		{2, []string{"-workers", "2"}},
		{3, []string{"-workers", "3", "-crash-worker", "0"}},
	} {
		rep := filepath.Join(dir, fmt.Sprintf("dist%d.json", tc.workers))
		cmd, stderr := experimentsCmd(t, "", append([]string{"-scenario", cfg, "-report", rep, "-out", t.TempDir()}, tc.args...)...)
		if err := cmd.Run(); err != nil {
			t.Fatalf("%v: %v\n%s", tc.args, err, stderr)
		}
		if got := normalized(rep); got != want {
			t.Fatalf("%v: merged report differs from the single-process run", tc.args)
		}
		names := map[string]bool{}
		for _, m := range joined.FindAllStringSubmatch(stderr.String(), -1) {
			names[m[1]] = true
		}
		if len(names) != tc.workers {
			t.Fatalf("%v: %d distinct workers joined, want %d:\n%s", tc.args, len(names), tc.workers, stderr)
		}
	}

	// SIGTERM mid-campaign: the command fails, and reaps its workers.
	long := filepath.Join(dir, "long.json")
	if err := os.WriteFile(long, []byte(`{"scenarios": [{"name": "long", "kind": "single",
	  "strategy": "MO", "runs": 10000000, "horizon": 100, "seed": 1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd, stderr := experimentsCmd(t, "distributing over", "-scenario", long, "-workers", "2", "-out", t.TempDir())
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	var started bool
	select {
	case <-stderr.seen:
		started = true
	case <-time.After(time.Minute):
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	err := cmd.Wait()
	if !started {
		t.Fatalf("the command never started distributing:\n%s", stderr)
	}
	var xe *exec.ExitError
	if !errors.As(err, &xe) {
		t.Fatalf("SIGTERMed command: err = %v, want a failing exit with every worker gone\n%s", err, stderr)
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

	if _, _, err := registryFleet(context.Background(), "127.0.0.1:0", 0, nil); err == nil {
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
	if err := runScenarios(context.Background(), cfg, t.TempDir(), whole, nil, localFleet, localOptions); err != nil {
		t.Fatal(err)
	}
	dist := filepath.Join(dir, "dist.json")
	if err := runScenarios(context.Background(), cfg, t.TempDir(), dist,
		nil, coordinator.StaticOf(coordinator.InProcessFleet(3)...), coordinator.Options{}); err != nil {
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
