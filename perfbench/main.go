// Command perfbench is the repository's end-to-end benchmark: closed-loop
// Monte-Carlo campaigns of one workload, timed for a fixed wall budget,
// with every campaign's report checked. With --trace 1 it instead
// replays a campaign's kernel calls (and, for the fleet, times the
// dispatch path) and prints per-layer metrics.
//
// Run it from the repository root through its wrapper, which builds it:
//
//	bash perfbench/run.sh --workload paper-mo --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See NOTES.md for the design.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"strconv"
	"syscall"
	"time"

	"chaffmec"
	"chaffmec/internal/rng"
	"chaffmec/internal/tune"
)

// workload is one benchmark workload: a campaign it repeats, the set-up
// that campaign needs, and the checks and traced replay of its results.
type workload interface {
	// setup pays, from cold, what the first campaign would pay and later
	// ones do not. It runs several times; the last run leaves the state
	// warm for the campaigns.
	setup() error
	runsPerCampaign() int
	tuneBlock() int
	// campaign runs campaign k (0 is the warm-up).
	campaign(ctx context.Context, k int) (*chaffmec.Report, error)
	// check verifies campaign k's report.
	check(ctx context.Context, k int, rep *chaffmec.Report) (bool, error)
	// traced fills the per-layer metrics and returns the spans to write.
	traced(ctx context.Context, m metrics, checks *tally) ([]span, error)
	close()
}

var workloadNames = []string{"paper-mo", "advanced-oo", "fleet-trace"}

// Repetitions inside one run.
const (
	replayPasses     = 3  // untraced and traced kernel replays, each
	probePasses      = 5  // report and store probes
	throughputSlices = 10 // slices of the timed campaigns runs_per_s is the median of
	singleSetups     = 9  // cold set-ups of paper-mo and advanced-oo; setup_s is their median
	fleetSetups      = 3  // cold set-ups of fleet-trace, each ~0.4 s
)

// advancedRuns is advanced-oo's campaign size: 8 chunks even at the
// widest width the calibration can pick (256), so 4 per worker, and 128
// at its usual 16. Its traced replay re-runs the first eighth, one
// chunk at the widest width, as a whole campaign would take ~13 s a pass
// on one goroutine.
const (
	advancedRuns       = 2048
	advancedReplayRuns = 256
)

// newWorkload builds a workload and says how many times to set it up.
// Each workload draws its run seeds from the benchmark seed under its
// own stream, so one --seed gives every workload distinct inputs.
func newWorkload(name string, seed int64, dir string, tr *tracer) (workload, int, error) {
	var w workload
	var err error
	reps := singleSetups
	switch name {
	case "paper-mo":
		w, err = newSingle("MO", false, 1000, 1000, rng.Derive(seed, 1))
	case "advanced-oo":
		w, err = newSingle("OO", true, advancedRuns, advancedReplayRuns, rng.Derive(seed, 2))
	case "fleet-trace":
		w, err = newFleet(rng.Derive(seed, 3), dir, tr)
		reps = fleetSetups
	default:
		return nil, 0, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	if err != nil {
		return nil, 0, fmt.Errorf("building %s: %w", name, err)
	}
	return w, reps, nil
}

// fleetOnly are the per-layer metrics only the fleet exercises; the
// single-process workloads bypass these layers and report 0.
var fleetOnly = []string{
	"figures.tracelab_build_s",
	"worker.shard_s.p50", "wire.overhead_s.p50", "wire.bytes_sent", "wire.bytes_received",
	"coordinator.self_s", "coordinator.worker_idle_share", "coordinator.dispatches", "coordinator.results",
	"coordinator.speculative", "coordinator.failures", "coordinator.banked",
	"report.encode_us", "report.decode_us", "report.merge_us", "report.bytes",
	"store.put_us", "store.get_us",
}

// scratchDir, relative to the repository root the benchmark runs from,
// holds the run's scratch stores and the traced run's span files; run.sh
// keeps the build there too.
const scratchDir = ".bench_build"

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

func parseFlags(args []string) (options, error) {
	var o options
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload: paper-mo, advanced-oo or fleet-trace")
	fs.Int64Var(&o.seed, "seed", 1, "benchmark seed the workload's inputs derive from")
	fs.IntVar(&o.seconds, "seconds", 10, "wall seconds of timed campaigns")
	fs.IntVar(&trace, "trace", 0, "1: traced per-layer run instead of the end-to-end one")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if o.seconds < 1 || (trace != 0 && trace != 1) {
		return o, errors.New("--seconds must be positive and --trace 0 or 1")
	}
	o.trace = trace == 1
	return o, nil
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	correct, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !correct {
		os.Exit(1)
	}
}

// run executes one benchmark run and prints its result. A run that
// cannot measure returns an error and prints no result.
func run(o options, stdout io.Writer) (bool, error) {
	// Like with like: no persistent store and no pinned width.
	os.Unsetenv(chaffmec.EnvStore)
	os.Unsetenv("CHAFFMEC_BLOCK")
	dir := filepath.Join(scratchDir, "runs", fmt.Sprintf("%s-%d-%d", o.workload, o.seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return false, err
	}
	defer os.RemoveAll(dir)
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	w, setupReps, err := newWorkload(o.workload, o.seed, dir, tr)
	if err != nil {
		return false, err
	}
	defer w.close()
	ctx := context.Background()

	var setups []float64
	var picks []int
	for i := 0; i < setupReps; i++ {
		begin := time.Now()
		if err := w.setup(); err != nil {
			return false, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(begin).Seconds())
		picks = append(picks, w.tuneBlock())
	}
	// No campaign is timed before one warm-up campaign has run.
	if _, err := w.campaign(ctx, 0); err != nil {
		return false, fmt.Errorf("warm-up campaign: %w", err)
	}

	st := hostStamp(o.workload, o.seed)
	res := result{Metrics: metrics{}}
	var info []string
	if o.trace {
		var checks tally
		spans, err := w.traced(ctx, res.Metrics, &checks)
		if spans != nil {
			path := filepath.Join(scratchDir, "traces", fmt.Sprintf("%s-seed%d.spans.jsonl", o.workload, o.seed))
			if werr := os.MkdirAll(filepath.Dir(path), 0o755); werr == nil {
				werr = writeSpans(path, spans)
				info = append(info, fmt.Sprintf("spans %d written to %s (write error: %v)", len(spans), path, werr))
			}
		}
		if err != nil {
			return false, fmt.Errorf("traced run: %w", err)
		}
		res.Attempted, res.Failed = checks.attempted, checks.failed
		if err := res.Metrics.complete(perLayer); err != nil {
			return false, err
		}
	} else {
		var tl tally
		info, err = measure(ctx, w, o.seconds, res.Metrics, &tl)
		if err != nil {
			return false, err
		}
		res.Metrics.set("setup_s", median(setups))
		res.Attempted, res.Failed = tl.attempted, tl.failed
		if err := res.Metrics.complete(endToEnd); err != nil {
			return false, err
		}
	}
	st.TuneBlock = w.tuneBlock()
	res.Correct = res.Failed == 0 && res.Attempted > 0
	blob, err := json.Marshal(st)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(stdout, "stamp %s\n", blob)
	fmt.Fprintf(stdout, "info setup_s reps %v, tune.block picks %v\n", fmtSeconds(setups), picks)
	for _, line := range info {
		fmt.Fprintf(stdout, "info %s\n", line)
	}
	return res.Correct, writeResult(stdout, res)
}

// measure runs closed-loop campaigns for the wall budget, checking each
// report between campaigns, and fills the end-to-end metrics.
func measure(ctx context.Context, w workload, seconds int, m metrics, tl *tally) ([]string, error) {
	runtime.GC()
	// Only the campaigns are measured: the window is the sum of their
	// walls, and CPU and allocations are read around each one, so the
	// report checks made between campaigns cost nothing here.
	budget := time.Duration(seconds) * time.Second

	// Throughput is taken per slice of about a tenth of the budget and
	// the median slice reported, so a stall of the shared host moves one
	// slice rather than the figure.
	sliceBudget := budget / throughputSlices
	var rates []float64
	var sliceWall time.Duration
	sliceRuns := 0
	var window, cpu time.Duration
	var walls []float64
	var allocs uint64
	runs := 0
	var lastErr error
	samples := newAllocSamples()
	for k := 1; window < budget; k++ {
		ru0, a0, err := usage(samples)
		if err != nil {
			return nil, err
		}
		c0 := time.Now()
		rep, err := w.campaign(ctx, k)
		wall := time.Since(c0)
		ru1, a1, uerr := usage(samples)
		if uerr != nil {
			return nil, uerr
		}
		window += wall
		walls = append(walls, wall.Seconds())
		cpu += ru1 - ru0
		allocs += a1 - a0
		if err != nil {
			lastErr, rep = err, nil
		} else {
			runs += w.runsPerCampaign()
			sliceRuns += w.runsPerCampaign()
		}
		if sliceWall += wall; sliceWall >= sliceBudget {
			rates = append(rates, float64(sliceRuns)/sliceWall.Seconds())
			sliceWall, sliceRuns = 0, 0
		}
		if rep == nil {
			tl.record(false)
			continue
		}
		ok, err := w.check(ctx, k, rep)
		if err != nil {
			return nil, fmt.Errorf("checking campaign %d: %w", k, err)
		}
		tl.record(ok)
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, err
	}
	if runs == 0 {
		return nil, fmt.Errorf("no campaign completed: %w", lastErr)
	}
	m.set("runs_per_s", median(rates))
	m.set("campaign_s.p50", percentile(walls, 0.5).Value)
	m.set("cpu_us_per_run", float64(cpu.Nanoseconds())/1e3/float64(runs))
	m.set("allocs_per_run", float64(allocs)/float64(runs))

	info := []string{fmt.Sprintf("campaigns %d of %d runs in %.3fs (%.6g runs/s over the whole window, %d slices); failed_share %g (%d of %d)",
		len(walls), w.runsPerCampaign(), window.Seconds(), float64(runs)/window.Seconds(), len(rates),
		tl.share(), tl.failed, tl.attempted)}
	if lastErr != nil {
		info = append(info, "last campaign error: "+lastErr.Error())
	}
	// Linux reports KiB.
	info = append(info, fmt.Sprintf("max_rss_mb %.3f MB at tune.block %d", float64(ru.Maxrss)/1024, w.tuneBlock()))
	p50, p90 := percentile(walls, 0.5), percentile(walls, 0.9)
	info = append(info, fmt.Sprintf("campaign_s.p50 %.6f s (n=%d)", p50.Value, p50.N))
	if p90.Reportable() {
		info = append(info, fmt.Sprintf("campaign_s.p90 %.6f s (n=%d, %d beyond)", p90.Value, p90.N, p90.Beyond))
	} else {
		info = append(info, fmt.Sprintf("campaign_s.p90 not reported: n=%d leaves %d beyond, need %d", p90.N, p90.Beyond, minBeyond))
	}
	return info, nil
}

// newAllocSamples names the heap allocation count runtime.MemStats.Mallocs
// reports — small and large objects plus tiny allocations — read
// without stopping the world.
func newAllocSamples() []rtmetrics.Sample {
	return []rtmetrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/tiny/allocs:objects"},
	}
}

// usage returns the process's user plus system CPU time and its
// cumulative heap allocation count, read into samples.
func usage(samples []rtmetrics.Sample) (time.Duration, uint64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0, err
	}
	rtmetrics.Read(samples)
	n := samples[0].Value.Uint64() + samples[1].Value.Uint64()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), n, nil
}

// timeCalibration drops the cached block widths, times a fresh
// calibration for the kernel shape, and records both.
func timeCalibration(m metrics, chain *chaffmec.Chain, U, T int) int {
	tune.ResetForTest()
	begin := time.Now()
	b := tune.BlockSize(chain, U, T)
	m.set("tune.calibrate_s", time.Since(begin).Seconds())
	m.set("tune.block", float64(b))
	return b
}

// canonical encodes a report for byte comparison, wall time zeroed.
func canonical(rep *chaffmec.Report) ([]byte, error) {
	if rep == nil {
		return nil, errors.New("no report")
	}
	c := *rep
	c.ElapsedMS = 0
	return json.Marshal(&c)
}

func fmtSeconds(xs []float64) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = strconv.FormatFloat(x, 'f', 4, 64)
	}
	return out
}
