package mec

import (
	"context"
	"errors"
	"math/rand"

	"chaffmec/internal/chaff"
	"chaffmec/internal/engine"
)

// BatchStats bundles the batch's raw position-aware accumulators — the
// exactly-mergeable partials the Job/Report shard workflow serializes.
type BatchStats struct {
	Tracking *engine.SeriesStats
	Overall  engine.ScalarStats
	// Cost components and episode counters, one accumulator each.
	MigrationCost, ChaffCost, CommCost          engine.ScalarStats
	Migrations, FailedMigrations, QoSViolations engine.ScalarStats
}

// BatchResult aggregates a batch of Monte-Carlo episodes of the MEC
// substrate simulator (possibly one shard of them).
type BatchResult struct {
	// Episodes is the number of episodes aggregated (the shard's size
	// when the options select one).
	Episodes int
	// Tracking is the mean per-slot tracking accuracy across episodes,
	// TrackingStdErr its standard error.
	Tracking       []float64
	TrackingStdErr []float64
	// Overall is the mean per-episode overall tracking accuracy,
	// OverallStdErr its standard error.
	Overall       float64
	OverallStdErr float64
	// Costs is the mean per-episode cost breakdown.
	Costs CostBreakdown
	// Migrations, FailedMigrations and QoSViolations are per-episode
	// means of the corresponding episode counters.
	Migrations, FailedMigrations, QoSViolations float64
	// Stats holds the raw accumulators behind every aggregate above.
	Stats *BatchStats
}

// RunBatch executes a batch of episodes on the shared Monte-Carlo engine
// (the whole batch, or the global-episode slice opts.Shard selects; ctx
// cancels between blocks of episodes): episode e draws all of its
// randomness from the rng.Derive(seed, e) stream (a reseeded per-worker
// splitmix64 source — see internal/rng), workers run their blocks of
// episodes in parallel, one episode at a time, and aggregation is
// deterministic in episode order. Because online controllers are
// stateful, each worker builds its own via newController; cfg.Controller
// must be left nil (a set controller would be silently ignored, so it is
// rejected).
func RunBatch(ctx context.Context, cfg Config, newController func() (chaff.OnlineController, error), opts engine.Options) (*BatchResult, error) {
	if newController == nil {
		return nil, errors.New("mec: RunBatch needs a controller factory")
	}
	if cfg.Controller != nil {
		return nil, errors.New("mec: RunBatch builds controllers via newController; leave cfg.Controller nil")
	}
	o := opts.Normalized()

	// Validate the configuration once, up front, with a throwaway
	// controller — worker construction then cannot fail on config errors.
	probe := cfg
	ctrl, err := newController()
	if err != nil {
		return nil, err
	}
	probe.Controller = ctrl
	if _, err := NewSimulator(probe); err != nil {
		return nil, err
	}

	start, _ := o.Range()
	st := &BatchStats{
		Tracking:         engine.NewSeriesStatsAt(cfg.Horizon, start),
		Overall:          engine.NewScalarStatsAt(start),
		MigrationCost:    engine.NewScalarStatsAt(start),
		ChaffCost:        engine.NewScalarStatsAt(start),
		CommCost:         engine.NewScalarStatsAt(start),
		Migrations:       engine.NewScalarStatsAt(start),
		FailedMigrations: engine.NewScalarStatsAt(start),
		QoSViolations:    engine.NewScalarStatsAt(start),
	}

	err = engine.Run(ctx, o, engine.Config[*Simulator, *Report]{
		NewWorker: func(int) (*Simulator, error) {
			wcfg := cfg
			ctrl, err := newController()
			if err != nil {
				return nil, err
			}
			wcfg.Controller = ctrl
			return NewSimulator(wcfg)
		},
		RunBlock: func(s *Simulator, start int, rngs []*rand.Rand, out []*Report) error {
			for i, rng := range rngs {
				rep, err := s.Run(rng)
				if err != nil {
					return err
				}
				out[i] = rep
			}
			return nil
		},
		Accumulate: func(episode int, rep *Report) error {
			if err := st.Tracking.Add(rep.Tracking); err != nil {
				return err
			}
			st.Overall.Add(rep.Overall)
			st.MigrationCost.Add(rep.Costs.Migration)
			st.ChaffCost.Add(rep.Costs.Chaff)
			st.CommCost.Add(rep.Costs.Comm)
			st.Migrations.Add(float64(rep.Migrations))
			st.FailedMigrations.Add(float64(rep.FailedMigrations))
			st.QoSViolations.Add(float64(rep.QoSViolations))
			return nil
		},
	})
	if err != nil {
		return nil, err
	}

	return &BatchResult{
		Episodes:       st.Tracking.N(),
		Tracking:       st.Tracking.Mean(),
		TrackingStdErr: st.Tracking.StdErr(),
		Overall:        st.Overall.Mean(),
		OverallStdErr:  st.Overall.StdErr(),
		Costs: CostBreakdown{
			Migration: st.MigrationCost.Mean(),
			Chaff:     st.ChaffCost.Mean(),
			Comm:      st.CommCost.Mean(),
		},
		Migrations:       st.Migrations.Mean(),
		FailedMigrations: st.FailedMigrations.Mean(),
		QoSViolations:    st.QoSViolations.Mean(),
		Stats:            st,
	}, nil
}
