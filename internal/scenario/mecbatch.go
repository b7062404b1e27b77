package scenario

import (
	"context"
	"strings"

	"chaffmec/internal/chaff"
	"chaffmec/internal/engine"
	"chaffmec/internal/mec"
	"chaffmec/internal/mobility"
	"chaffmec/internal/report"
)

// Scalar names the "mecbatch" kind publishes alongside the tracking
// series: the per-episode overall accuracy and the cost-curve /
// operations counters of the MEC substrate.
const (
	ScalarOverall          = "overall"
	ScalarMigrationCost    = "migration_cost"
	ScalarChaffCost        = "chaff_cost"
	ScalarCommCost         = "comm_cost"
	ScalarMigrations       = "migrations"
	ScalarFailedMigrations = "failed_migrations"
	ScalarQoSViolations    = "qos_violations"
)

// runMecbatch is the MEC substrate episode batch: each Monte-Carlo run
// simulates one end-to-end episode — a user walking the cell space, a
// real service placed by the (follow-user or threshold) policy, chaffs
// driven by the online form of Strategy, migration failure injection,
// and an eavesdropper reconstructing trajectories from the control-plane
// event log — and the batch aggregates the tracking series together with
// the priced cost breakdown. Strategy must name an online controller
// (IM, CML, MO, RMO, Rollout).
//
// Spec fields used: Model/GridW/GridH/PMove (a "grid" model also
// supplies coordinates for the per-hop communication cost),
// Strategy/NumChaffs, MigrationFailProb, Threshold (tolerated
// user-service distance in hops; needs the "grid" model; 0 follows the
// user every slot).
func runMecbatch(ctx context.Context, sp Spec, shard engine.Shard) (*report.Report, error) {
	if sp.Strategy == "" {
		return nil, badSpec(`kind "mecbatch" needs a strategy (an online controller)`)
	}
	onGrid := strings.EqualFold(strings.TrimSpace(sp.Model), "grid")
	var grid mobility.Grid
	if onGrid {
		var err error
		if grid, err = mobility.NewGrid(sp.GridW, sp.GridH); err != nil {
			return nil, err
		}
	} else if sp.Threshold > 0 {
		return nil, badSpec("threshold policy needs the %q model for distances, got %q", "grid", sp.Model)
	}
	chain, err := buildChain(sp.Model, sp)
	if err != nil {
		return nil, err
	}
	// Probe once so "offline-only strategy" fails before worker setup.
	if s, err := chaff.NewByName(sp.Strategy, chain); err != nil {
		return nil, err
	} else if _, ok := s.(chaff.OnlineController); !ok {
		return nil, badSpec("strategy %q is offline-only (needs the user's future trajectory)", sp.Strategy)
	}
	newController := func() (chaff.OnlineController, error) {
		s, err := chaff.NewByName(sp.Strategy, chain)
		if err != nil {
			return nil, err
		}
		return s.(chaff.OnlineController), nil
	}
	cfg := mec.Config{
		Chain:             chain,
		NumChaffs:         sp.NumChaffs,
		Horizon:           sp.Horizon,
		Grid:              grid,
		MigrationFailProb: sp.MigrationFailProb,
	}
	if sp.Threshold > 0 {
		cfg.Policy = mec.ThresholdPolicy{Grid: grid, MaxHops: sp.Threshold}
	}
	res, err := mec.RunBatch(ctx, cfg, newController, sp.options(shard))
	if err != nil {
		return nil, err
	}
	rep := sp.envelope(shard)
	rep.Series = map[string]engine.SeriesSnapshot{
		report.SeriesTracking: res.Stats.Tracking.Snapshot(),
	}
	rep.Scalars = map[string]engine.ScalarSnapshot{
		ScalarOverall:          res.Stats.Overall.Snapshot(),
		ScalarMigrationCost:    res.Stats.MigrationCost.Snapshot(),
		ScalarChaffCost:        res.Stats.ChaffCost.Snapshot(),
		ScalarCommCost:         res.Stats.CommCost.Snapshot(),
		ScalarMigrations:       res.Stats.Migrations.Snapshot(),
		ScalarFailedMigrations: res.Stats.FailedMigrations.Snapshot(),
		ScalarQoSViolations:    res.Stats.QoSViolations.Snapshot(),
	}
	return rep, nil
}
