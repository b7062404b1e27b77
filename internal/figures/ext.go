package figures

import (
	"context"
	"fmt"

	"chaffmec/internal/chaff"
	"chaffmec/internal/engine"
	"chaffmec/internal/mec"
	"chaffmec/internal/mobility"
	"chaffmec/internal/sim"
)

// The EXT experiments extend the paper along the directions its own text
// opens: comparing MDP solvers for the online strategy (Section IV-D),
// the multi-user scenario (Sections II-A/III remarks), and the
// cost-privacy tradeoff (Section VIII).

// ExtSolverRow compares online-strategy solvers on one mobility model.
type ExtSolverRow struct {
	Model    mobility.ModelID
	Strategy string
	// Overall and Final are the time-average and final-slot tracking
	// accuracies of the basic eavesdropper.
	Overall, Final float64
}

// ExtSolvers compares MO (the paper's myopic heuristic), the rollout
// solver, and the γ-discretized value-iteration solver (ApproxDP).
func ExtSolvers(cfg Config) ([]ExtSolverRow, error) {
	cfg = cfg.withDefaults()
	var rows []ExtSolverRow
	for _, id := range mobility.AllModels {
		chain, err := buildModel(id, cfg)
		if err != nil {
			return nil, err
		}
		dp, err := chaff.NewApproxDP(chain)
		if err != nil {
			return nil, err
		}
		for _, entry := range []struct {
			name     string
			strategy chaff.Strategy
		}{
			{"MO", chaff.NewMO(chain)},
			{"Rollout", chaff.NewRollout(chain)},
			{"ApproxDP", dp},
		} {
			res, err := sim.Run(context.Background(), sim.Scenario{
				Chain:     chain,
				Strategy:  entry.strategy,
				NumChaffs: 1,
				Horizon:   cfg.Horizon,
			}, engine.Options{Runs: cfg.Runs, Seed: cfg.Seed, Workers: cfg.Workers})
			if err != nil {
				return nil, fmt.Errorf("figures: ext-solvers %v/%s: %w", id, entry.name, err)
			}
			rows = append(rows, ExtSolverRow{
				Model:    id,
				Strategy: entry.name,
				Overall:  res.Overall,
				Final:    res.PerSlot[len(res.PerSlot)-1],
			})
		}
	}
	return rows, nil
}

// ExtMultiuserRow reports the target's tracking accuracy with a given
// number of coexisting users, with and without a chaff.
type ExtMultiuserRow struct {
	Model          mobility.ModelID
	OtherUsers     int
	Unprotected    float64
	WithMOChaff    float64
	CollisionLimit float64
}

// ExtMultiuser quantifies the Sections II-A/III multi-user remarks —
// including the regression-toward-Σπ² effect on tracking accuracy that
// the paper's "additional protection" remark glosses over (see
// EXPERIMENTS.md).
func ExtMultiuser(cfg Config, crowds []int) ([]ExtMultiuserRow, error) {
	cfg = cfg.withDefaults()
	if len(crowds) == 0 {
		crowds = []int{0, 4, 9, 19}
	}
	var rows []ExtMultiuserRow
	for _, id := range []mobility.ModelID{mobility.ModelSpatiallySkewed, mobility.ModelBothSkewed} {
		chain, err := buildModel(id, cfg)
		if err != nil {
			return nil, err
		}
		coll, err := chain.CollisionProbability()
		if err != nil {
			return nil, err
		}
		opts := engine.Options{Runs: cfg.Runs, Seed: cfg.Seed, Workers: cfg.Workers}
		for _, others := range crowds {
			sc := sim.Scenario{Chain: chain, Horizon: cfg.Horizon, Others: make([]sim.Other, others)}
			for i := range sc.Others {
				sc.Others[i].Chain = chain
			}
			unprot, err := sim.Run(context.Background(), sc, opts)
			if err != nil {
				return nil, err
			}
			sc.Strategy, sc.NumChaffs = chaff.NewMO(chain), 1
			prot, err := sim.Run(context.Background(), sc, opts)
			if err != nil {
				return nil, err
			}
			rows = append(rows, ExtMultiuserRow{
				Model:          id,
				OtherUsers:     others,
				Unprotected:    unprot.Overall,
				WithMOChaff:    prot.Overall,
				CollisionLimit: coll,
			})
		}
	}
	return rows, nil
}

// ExtCostRow is one point of the cost-privacy tradeoff curve.
type ExtCostRow struct {
	Strategy  string
	NumChaffs int
	// Accuracy is the eavesdropper's tracking accuracy in the MEC
	// simulation; the cost columns are the per-episode price breakdown.
	Accuracy                            float64
	MigrationCost, ChaffCost, TotalCost float64
}

// ExtCostPrivacy runs the MEC substrate across chaff budgets and reports
// tracking accuracy against the money spent — the tradeoff the paper
// leaves to future work (Section VIII).
func ExtCostPrivacy(cfg Config, budgets []int) ([]ExtCostRow, error) {
	cfg = cfg.withDefaults()
	if len(budgets) == 0 {
		budgets = []int{1, 2, 4, 8}
	}
	grid, err := mobility.NewGrid(5, 5)
	if err != nil {
		return nil, err
	}
	chain, err := grid.Walk(0.7, 1e-6)
	if err != nil {
		return nil, err
	}
	episodes := cfg.Runs / 10
	if episodes < 10 {
		episodes = 10
	}
	var rows []ExtCostRow
	for _, strategyName := range []string{"IM", "RMO"} {
		for _, n := range budgets {
			newController := func() (chaff.OnlineController, error) {
				strat, err := chaff.NewByName(strategyName, chain)
				if err != nil {
					return nil, err
				}
				ctrl, ok := strat.(chaff.OnlineController)
				if !ok {
					return nil, fmt.Errorf("figures: %s is not an online controller", strategyName)
				}
				return ctrl, nil
			}
			batch, err := mec.RunBatch(context.Background(), mec.Config{
				Chain:     chain,
				NumChaffs: n,
				Horizon:   cfg.Horizon,
				Grid:      grid,
			}, newController, engine.Options{Runs: episodes, Seed: cfg.Seed, Workers: cfg.Workers})
			if err != nil {
				return nil, err
			}
			rows = append(rows, ExtCostRow{
				Strategy:      strategyName,
				NumChaffs:     n,
				Accuracy:      batch.Overall,
				MigrationCost: batch.Costs.Migration,
				ChaffCost:     batch.Costs.Chaff,
				TotalCost:     batch.Costs.Total(),
			})
		}
	}
	return rows, nil
}
