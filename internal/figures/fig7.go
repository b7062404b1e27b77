package figures

import (
	"context"
	"errors"
	"fmt"

	"chaffmec/internal/chaff"
	"chaffmec/internal/engine"
	"chaffmec/internal/mobility"
	"chaffmec/internal/sim"
)

// Fig7Panel is one mobility-model panel of Fig. 7: per-slot tracking
// accuracy of the advanced (strategy-aware) eavesdropper against the IM
// strategy and the robust randomized strategies, at N=10.
type Fig7Panel struct {
	Model  mobility.ModelID
	Curves []Fig5Curve
}

// fig7Strategies are the strategies Fig. 7 evaluates. The advanced
// eavesdropper recognizes each through its deterministic original's Γ
// (chaff.CappedGammaByName). IM has no deterministic map, so there the
// strategy-aware eavesdropper degenerates to the basic ML detector
// (Section VI-A.1).
var fig7Strategies = []string{"IM", "RML", "ROO", "RMO"}

// Fig7 reproduces Fig. 7 with N=10 (nine chaffs).
func Fig7(cfg Config) ([]Fig7Panel, error) {
	cfg = cfg.withDefaults()
	const numChaffs = 9
	panels := make([]Fig7Panel, 0, len(mobility.AllModels))
	for _, id := range mobility.AllModels {
		chain, err := buildModel(id, cfg)
		if err != nil {
			return nil, err
		}
		panel := Fig7Panel{Model: id}
		for _, name := range fig7Strategies {
			strategy, err := chaff.NewByName(name, chain)
			if err != nil {
				return nil, err
			}
			sc := sim.Scenario{
				Chain:     chain,
				Strategy:  strategy,
				NumChaffs: numChaffs,
				Horizon:   cfg.Horizon,
			}
			switch gamma, err := chaff.CappedGammaByName(name, chain); {
			case err == nil:
				sc.Advanced, sc.Gamma = true, gamma
			case !errors.Is(err, chaff.ErrNoGamma):
				return nil, err
			}
			res, err := sim.Run(context.Background(), sc, engine.Options{Runs: cfg.Runs, Seed: cfg.Seed, Workers: cfg.Workers})
			if err != nil {
				return nil, fmt.Errorf("figures: fig7 %v/%s: %w", id, name, err)
			}
			panel.Curves = append(panel.Curves, Fig5Curve{
				Label:   name,
				PerSlot: res.PerSlot,
				Overall: res.Overall,
			})
		}
		panels = append(panels, panel)
	}
	return panels, nil
}
