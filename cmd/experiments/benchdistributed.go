package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"chaffmec/internal/coordinator"
	"chaffmec/internal/rng"
	"chaffmec/internal/scenario"
)

// distLeg is one measured fleet size of the scaling benchmark.
type distLeg struct {
	// Workers is the subprocess fleet size, WallMS the wall-clock time
	// of the coordinated run, Speedup the ratio against the 1-worker
	// leg (spawn/IPC overhead included — that is the point).
	Workers int     `json:"workers"`
	WallMS  float64 `json:"wall_ms"`
	Speedup float64 `json:"speedup"`
}

// distReport is the BENCH_distributed.json artifact: the paper
// protocol fanned out over 1/2/4 subprocess workers.
type distReport struct {
	Protocol struct {
		Kind     string `json:"kind"`
		Strategy string `json:"strategy"`
		Runs     int    `json:"runs"`
		Horizon  int    `json:"horizon"`
		Seed     int64  `json:"seed"`
	} `json:"protocol"`
	Stream     string    `json:"stream"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	Legs       []distLeg `json:"legs"`
}

// benchDistributed writes the 1/2/4-worker wall-time scaling of the
// paper protocol (20× runs × T Monte-Carlo repetitions of the MO
// single-user scenario) under the subprocess coordinator. Every leg
// produces the bit-identical Report; only the wall clock moves. Each
// worker process is capped at ONE engine thread — emulating one core
// per worker host — because otherwise a single subprocess already
// saturates the benchmark machine and the fleet's scaling would be
// invisible; the run count is 20× the paper's so process spawn/IPC
// overhead (which the numbers deliberately include) amortizes.
func benchDistributed(ctx context.Context, path string, runs, horizon int, seed int64) error {
	spec := scenario.Spec{
		Name: "paper-protocol", Kind: "single", Strategy: "MO", NumChaffs: 1,
		Horizon: horizon, Runs: 20 * runs, Seed: seed,
		Workers: 1, // engine threads per worker process
	}
	var out distReport
	out.Protocol.Kind = spec.Kind
	out.Protocol.Strategy = spec.Strategy
	out.Protocol.Runs = spec.Runs
	out.Protocol.Horizon = horizon
	out.Protocol.Seed = seed
	out.Stream = rng.StreamVersion
	out.GOMAXPROCS = runtime.GOMAXPROCS(0)

	for _, n := range []int{1, 2, 4} {
		begin := time.Now()
		_, err := coordinator.RunFleet(ctx, scenario.Job{Spec: spec},
			coordinator.StaticOf(coordinator.SubprocessFleet(n)...), coordinator.Options{})
		if err != nil {
			return fmt.Errorf("bench-distributed %d workers: %w", n, err)
		}
		leg := distLeg{Workers: n, WallMS: float64(time.Since(begin)) / float64(time.Millisecond)}
		if len(out.Legs) > 0 && leg.WallMS > 0 {
			leg.Speedup = out.Legs[0].WallMS / leg.WallMS
		} else {
			leg.Speedup = 1
		}
		out.Legs = append(out.Legs, leg)
		fmt.Printf("bench-distributed: %d workers %.1f ms (%.2fx)\n", n, leg.WallMS, leg.Speedup)
	}

	blob, err := json.MarshalIndent(&out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}
