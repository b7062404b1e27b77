// Benchmarks: one per table/figure of the paper plus
// ablation and micro benchmarks. Sizes are reduced so the whole suite
// finishes in minutes; cmd/experiments runs the full-size versions.
package chaffmec

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"chaffmec/internal/analysis"
	"chaffmec/internal/chaff"
	"chaffmec/internal/detect"
	"chaffmec/internal/engine"
	"chaffmec/internal/figures"
	"chaffmec/internal/markov"
	"chaffmec/internal/mec"
	"chaffmec/internal/mobility"
	"chaffmec/internal/rng"
	"chaffmec/internal/sim"
	"chaffmec/internal/trellis"
)

// benchCfg is the reduced synthetic configuration shared by the figure
// benchmarks.
func benchCfg() figures.Config {
	return figures.Config{Runs: 20, Horizon: 50, Cells: 10, Seed: 1}
}

func benchChain(b *testing.B, id mobility.ModelID) *markov.Chain {
	b.Helper()
	c, err := mobility.Build(id, rng.New(99), 10)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// --- One benchmark per paper artifact ---

func BenchmarkFig4SteadyState(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if _, err := figures.Fig4(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableKLSkewness(b *testing.B) {
	chain := benchChain(b, mobility.ModelTemporallySkewed)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = chain.AvgPairwiseRowKL()
	}
}

func BenchmarkFig5BasicEavesdropper(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if _, err := figures.Fig5(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6CtCDF(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if _, err := figures.Fig6(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7AdvancedEavesdropper(b *testing.B) {
	cfg := benchCfg()
	cfg.Runs = 10
	for i := 0; i < b.N; i++ {
		if _, err := figures.Fig7(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEq11IMAccuracy(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if _, err := figures.Eq11(cfg, []int{2, 10}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTheoryBounds(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if _, err := figures.Theory(cfg, []int{300}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchLab caches a reduced trace lab for the trace-driven benchmarks.
var (
	benchLabOnce sync.Once
	benchLabVal  *figures.TraceLab
	benchLabErr  error
)

func benchLab(b *testing.B) *figures.TraceLab {
	b.Helper()
	benchLabOnce.Do(func() {
		benchLabVal, benchLabErr = figures.BuildTraceLab(figures.TraceConfig{
			Seed: 3, Nodes: 70, Minutes: 60,
			TowerClusters: 6, TowersPerCluster: 30, BackgroundTowers: 120,
		})
	})
	if benchLabErr != nil {
		b.Fatal(benchLabErr)
	}
	return benchLabVal
}

func BenchmarkFig8TracePipeline(b *testing.B) {
	// Measures the full pipeline: generation, regularisation, filtering,
	// quantisation and empirical-chain fitting.
	for i := 0; i < b.N; i++ {
		if _, err := figures.BuildTraceLab(figures.TraceConfig{
			Seed: 3, Nodes: 70, Minutes: 60,
			TowerClusters: 6, TowersPerCluster: 30, BackgroundTowers: 120,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9aNoChaff(b *testing.B) {
	lab := benchLab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := figures.Fig9a(lab); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9bSingleChaff(b *testing.B) {
	lab := benchLab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := figures.Fig9b(lab, 2, 11, figures.GridOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10AdvancedTrace(b *testing.B) {
	lab := benchLab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := figures.Fig10(lab, 1, 13, figures.GridOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benchmarks (design-choice costs the figures rest on) ---

// BenchmarkAblationChaffBudget sweeps the chaff budget for the IM
// strategy, the only one that benefits from more chaffs (Fig. 5 remark).
func BenchmarkAblationChaffBudget(b *testing.B) {
	chain := benchChain(b, mobility.ModelSpatiallySkewed)
	for _, n := range []int{1, 4, 9} {
		b.Run(map[int]string{1: "chaffs=1", 4: "chaffs=4", 9: "chaffs=9"}[n], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := sim.Run(context.Background(), sim.Scenario{
					Chain: chain, Strategy: chaff.NewIM(chain), NumChaffs: n, Horizon: 50,
				}, engine.Options{Runs: 20, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Overall, "accuracy")
			}
		})
	}
}

// BenchmarkAblationRolloutVsMO compares the myopic policy with the
// rollout MDP solver the paper names as the upgrade path (Section IV-D).
func BenchmarkAblationRolloutVsMO(b *testing.B) {
	chain := benchChain(b, mobility.ModelBothSkewed)
	strategies := map[string]chaff.Strategy{
		"MO":      chaff.NewMO(chain),
		"Rollout": chaff.NewRollout(chain),
	}
	for name, s := range strategies {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := sim.Run(context.Background(), sim.Scenario{
					Chain: chain, Strategy: s, NumChaffs: 1, Horizon: 50,
				}, engine.Options{Runs: 10, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Overall, "accuracy")
			}
		})
	}
}

// BenchmarkAblationDijkstraVsViterbi compares the paper's shortest-path
// formulation with the layered dynamic program on the same trellis.
func BenchmarkAblationDijkstraVsViterbi(b *testing.B) {
	chain := benchChain(b, mobility.ModelNonSkewed)
	b.Run("Viterbi", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := trellis.MLTrajectory(chain, 100, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Dijkstra", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := trellis.MLTrajectoryDijkstra(chain, 100, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationMigrationFailure measures chaff-protection robustness
// to an unreliable MEC control plane.
func BenchmarkAblationMigrationFailure(b *testing.B) {
	grid, err := mobility.NewGrid(4, 4)
	if err != nil {
		b.Fatal(err)
	}
	chain, err := grid.Walk(0.7, 1e-6)
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range []float64{0, 0.2} {
		name := "drop=0%"
		if p > 0 {
			name = "drop=20%"
		}
		b.Run(name, func(b *testing.B) {
			s, err := mec.NewSimulator(mec.Config{
				Chain: chain, Controller: chaff.NewMO(chain), NumChaffs: 1,
				Horizon: 100, Grid: grid, MigrationFailProb: p,
			})
			if err != nil {
				b.Fatal(err)
			}
			acc := 0.0
			for i := 0; i < b.N; i++ {
				rep, err := s.Run(rng.New(int64(i)))
				if err != nil {
					b.Fatal(err)
				}
				acc += rep.Overall
			}
			b.ReportMetric(acc/float64(b.N), "accuracy")
		})
	}
}

// BenchmarkExtSolvers compares the online-strategy solvers (MO, Rollout,
// ApproxDP) — the Section IV-D extension experiment.
func BenchmarkExtSolvers(b *testing.B) {
	cfg := benchCfg()
	cfg.Runs = 10
	for i := 0; i < b.N; i++ {
		if _, err := figures.ExtSolvers(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtMultiuser measures the multi-user cover experiment.
func BenchmarkExtMultiuser(b *testing.B) {
	cfg := benchCfg()
	cfg.Runs = 20
	for i := 0; i < b.N; i++ {
		if _, err := figures.ExtMultiuser(cfg, []int{0, 9}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtCostPrivacy measures the MEC cost-privacy sweep.
func BenchmarkExtCostPrivacy(b *testing.B) {
	cfg := benchCfg()
	cfg.Runs = 100
	for i := 0; i < b.N; i++ {
		if _, err := figures.ExtCostPrivacy(cfg, []int{1, 4}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPaperProtocolMO measures the paper's headline Monte-Carlo
// workload end to end — 1000 runs, T=100, L=10 cells, MO strategy, basic
// eavesdropper — on the shared engine. Run with -benchmem: per-worker
// detector reuse and log-likelihood buffer recycling keep the per-run
// allocation count low, which is the engine's contract for the ROADMAP
// scaling goals.
func BenchmarkPaperProtocolMO(b *testing.B) {
	chain := benchChain(b, mobility.ModelSpatiallySkewed)
	sc := sim.Scenario{Chain: chain, Strategy: chaff.NewMO(chain), NumChaffs: 1, Horizon: 100}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(context.Background(), sc, engine.Options{Runs: 1000, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineOverhead isolates the engine's dispatch/reorder cost with
// a no-op block body.
func BenchmarkEngineOverhead(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		err := engine.Run(context.Background(), engine.Options{Runs: 1000, Seed: 1}, engine.Config[struct{}, int]{
			RunBlock: func(_ struct{}, start int, _ []*rand.Rand, out []int) error {
				for i := range out {
					out[i] = start + i
				}
				return nil
			},
			Accumulate: func(int, int) error { return nil },
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// --- Micro benchmarks of the core algorithms ---

// BenchmarkTrajectorySampling pins the alias-table sampling win in the
// perf trajectory: Walker alias tables (markov.Chain.Sample) against the
// linear cumulative scan (markov.Chain.SampleLinear) on the 20×20-grid
// scenario the ROADMAP names — 400 dense rows, where the scan is O(cells)
// per slot and the alias draw is O(1) — and on the paper-protocol
// 10-cell synthetic model, where rows are short and the win is smaller.
// Each iteration samples one T=100 trajectory; table construction is
// hoisted out of the timed loop (it is lazy and cached on the chain, as
// in production use).
func BenchmarkTrajectorySampling(b *testing.B) {
	grid, err := mobility.NewGrid(20, 20)
	if err != nil {
		b.Fatal(err)
	}
	gridChain, err := grid.Walk(0.7, 1e-6)
	if err != nil {
		b.Fatal(err)
	}
	paperChain := benchChain(b, mobility.ModelSpatiallySkewed)
	for _, bc := range []struct {
		name  string
		chain *markov.Chain
	}{
		{"grid20x20", gridChain},
		{"paper10cell", paperChain},
	} {
		samplers := []struct {
			name   string
			sample func(r *rand.Rand, T int) (markov.Trajectory, error)
		}{
			{"alias", bc.chain.Sample},
			{"linear", bc.chain.SampleLinear},
		}
		for _, s := range samplers {
			b.Run(bc.name+"/"+s.name, func(b *testing.B) {
				// Warm the lazy tables (and the steady-state solve)
				// outside the timed region.
				r := rng.New(1)
				if _, err := s.sample(r, 2); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				const T = 100
				for i := 0; i < b.N; i++ {
					if _, err := s.sample(r, T); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/T, "ns/slot")
			})
		}
	}
}

// BenchmarkReseedVsNewSource isolates the other substrate win: deriving a
// run's private stream by reseeding a per-worker rng.Source (an 8-byte
// write) versus allocating a fresh math/rand source per run (~5 KB), the
// dominant per-run allocation before internal/rng existed.
func BenchmarkReseedVsNewSource(b *testing.B) {
	b.Run("rng.Reseed", func(b *testing.B) {
		src := rng.NewSource(0)
		r := rand.New(src)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			src.Reseed(1, i)
			_ = r.Float64()
		}
	})
	b.Run("rand.NewSource", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			//lint:ignore streamstability this benchmark measures the pre-rng lagged-Fibonacci design's per-stream allocation cost as the comparison baseline
			src := rand.NewSource(int64(i))
			_ = rand.New(src).Float64()
		}
	})
}

func BenchmarkOOPlan(b *testing.B) {
	chain := benchChain(b, mobility.ModelNonSkewed)
	rng := rng.New(1)
	user, err := chain.Sample(rng, 100)
	if err != nil {
		b.Fatal(err)
	}
	oo := chaff.NewOO(chain)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := oo.Plan(user); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMOGamma(b *testing.B) {
	chain := benchChain(b, mobility.ModelNonSkewed)
	rng := rng.New(1)
	user, err := chain.Sample(rng, 100)
	if err != nil {
		b.Fatal(err)
	}
	mo := chaff.NewMO(chain)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mo.Gamma(user); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPrefixDetection(b *testing.B) {
	chain := benchChain(b, mobility.ModelNonSkewed)
	rng := rng.New(1)
	trs := make([]markov.Trajectory, 10)
	for i := range trs {
		tr, err := chain.Sample(rng, 100)
		if err != nil {
			b.Fatal(err)
		}
		trs[i] = tr
	}
	d := detect.NewMLDetector(chain)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.PrefixDetections(trs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInducedChainDrift(b *testing.B) {
	chain := benchChain(b, mobility.ModelNonSkewed)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ic, err := analysis.NewInducedCML(chain)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := ic.Drift(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSteadyState(b *testing.B) {
	// Fresh chain each iteration: SteadyState caches per chain.
	p := benchChain(b, mobility.ModelNonSkewed).Matrix()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := markov.New(p)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.SteadyState(); err != nil {
			b.Fatal(err)
		}
	}
}
