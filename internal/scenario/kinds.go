package scenario

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"chaffmec/internal/chaff"
	"chaffmec/internal/detect"
	"chaffmec/internal/engine"
	"chaffmec/internal/markov"
	"chaffmec/internal/multiuser"
	"chaffmec/internal/report"
	"chaffmec/internal/sim"
)

// runSingle is the internal/sim scenario.
func runSingle(ctx context.Context, sp Spec, shard engine.Shard) (*report.Report, error) {
	if sp.Strategy == "" {
		return nil, errors.New(`scenario: kind "single" needs a strategy`)
	}
	chain, err := buildChain(sp.Model, sp)
	if err != nil {
		return nil, err
	}
	strat, err := chaff.NewByName(sp.Strategy, chain)
	if err != nil {
		return nil, err
	}
	sc := sim.Scenario{
		Chain:     chain,
		Strategy:  strat,
		NumChaffs: sp.NumChaffs,
		Horizon:   sp.Horizon,
	}
	if sp.Advanced {
		sc.Detector = sim.AdvancedDetector
		// A deterministic strategy is its own Γ (sim.Scenario.Gamma); the
		// robust ones and an injected map go through specGamma.
		if _, self := strat.(chaff.TrajectoryMapper); sp.Gamma != nil || !self {
			if sc.CappedGamma, err = specGamma(sp, chain); err != nil {
				return nil, err
			}
		}
	}
	res, err := sim.Run(ctx, sc, sp.options(shard))
	if err != nil {
		return nil, err
	}
	rep := sp.envelope(shard)
	rep.Series = map[string]engine.SeriesSnapshot{
		report.SeriesTracking:  res.TrackStats.Snapshot(),
		report.SeriesDetection: res.DetectionStats.Snapshot(),
	}
	return rep, nil
}

// runMultiuser is the internal/multiuser scenario, optionally with the
// strategy-aware advanced eavesdropper.
func runMultiuser(ctx context.Context, sp Spec, shard engine.Shard) (*report.Report, error) {
	chain, err := buildChain(sp.Model, sp)
	if err != nil {
		return nil, err
	}
	cfg := multiuser.Config{TargetChain: chain, Horizon: sp.Horizon}
	if sp.OtherUsers > 0 {
		other := chain
		if sp.OtherModel != sp.Model {
			if other, err = buildChain(sp.OtherModel, sp); err != nil {
				return nil, err
			}
			if other.NumStates() != chain.NumStates() {
				return nil, fmt.Errorf("scenario: other model %q has %d cells, target has %d",
					sp.OtherModel, other.NumStates(), chain.NumStates())
			}
		}
		for i := 0; i < sp.OtherUsers; i++ {
			cfg.OtherChains = append(cfg.OtherChains, other)
		}
	}
	if sp.Strategy != "" {
		if cfg.Strategy, err = chaff.NewByName(sp.Strategy, chain); err != nil {
			return nil, err
		}
		cfg.NumChaffs = sp.NumChaffs
	}
	if sp.Advanced {
		if sp.Strategy == "" {
			return nil, errors.New("scenario: advanced eavesdropper needs a strategy to recognize")
		}
		if cfg.CappedGamma, err = specGamma(sp, chain); err != nil {
			return nil, err
		}
	}
	res, err := multiuser.Run(ctx, cfg, sp.options(shard))
	if err != nil {
		return nil, err
	}
	rep := sp.envelope(shard)
	rep.Series = map[string]engine.SeriesSnapshot{
		report.SeriesTracking: res.TrackStats.Snapshot(),
	}
	return rep, nil
}

// specGamma resolves the advanced eavesdropper's strategy map: the
// injected Spec.Gamma when present, else the capped Γ of Spec.Strategy.
func specGamma(sp Spec, chain *markov.Chain) (detect.CappedGammaFunc, error) {
	if sp.Gamma != nil {
		return sp.Gamma, nil
	}
	return chaff.CappedGammaByName(sp.Strategy, chain)
}

// unionStrategy composes several chaff strategies into one population:
// each member generates `per` chaffs for the same user trajectory, in
// listed order (so RNG draws match running the members back to back).
type unionStrategy struct {
	strategies []chaff.Strategy
	per        int
}

func (u *unionStrategy) Name() string { return "mixed" }

func (u *unionStrategy) GenerateChaffs(rng *rand.Rand, user markov.Trajectory, numChaffs int) ([]markov.Trajectory, error) {
	if want := u.per * len(u.strategies); numChaffs != want {
		return nil, fmt.Errorf("scenario: mixed population generates %d chaffs, asked for %d", want, numChaffs)
	}
	out := make([]markov.Trajectory, 0, numChaffs)
	for _, s := range u.strategies {
		chaffs, err := s.GenerateChaffs(rng, user, u.per)
		if err != nil {
			return nil, fmt.Errorf("scenario: %s chaffs: %w", s.Name(), err)
		}
		out = append(out, chaffs...)
	}
	return out, nil
}

// runMixed evaluates a mixed-strategy chaff population: every strategy in
// Strategies contributes NumChaffs chaffs for the same user, and the
// basic ML eavesdropper observes the union. The population composes into
// a single chaff.Strategy, so execution is plain sim.Run on the engine.
func runMixed(ctx context.Context, sp Spec, shard engine.Shard) (*report.Report, error) {
	if len(sp.Strategies) == 0 {
		return nil, errors.New(`scenario: kind "mixed" needs strategies`)
	}
	chain, err := buildChain(sp.Model, sp)
	if err != nil {
		return nil, err
	}
	union := &unionStrategy{per: sp.NumChaffs}
	for _, name := range sp.Strategies {
		s, err := chaff.NewByName(name, chain)
		if err != nil {
			return nil, err
		}
		union.strategies = append(union.strategies, s)
	}
	res, err := sim.Run(ctx, sim.Scenario{
		Chain:     chain,
		Strategy:  union,
		NumChaffs: sp.NumChaffs * len(union.strategies),
		Horizon:   sp.Horizon,
	}, sp.options(shard))
	if err != nil {
		return nil, err
	}
	rep := sp.envelope(shard)
	rep.Series = map[string]engine.SeriesSnapshot{
		report.SeriesTracking:  res.TrackStats.Snapshot(),
		report.SeriesDetection: res.DetectionStats.Snapshot(),
	}
	return rep, nil
}

// runHetero evaluates a heterogeneous population: every Population
// member contributes Count coexisting users following their own mobility
// model and running their own chaff strategy, the target optionally
// protects itself with Spec.Strategy, and the (basic or strategy-aware)
// eavesdropper observes the union. Execution is multiuser.Run with
// per-other strategies.
func runHetero(ctx context.Context, sp Spec, shard engine.Shard) (*report.Report, error) {
	if len(sp.Population) == 0 {
		return nil, errors.New(`scenario: kind "hetero" needs a population`)
	}
	chain, err := buildChain(sp.Model, sp)
	if err != nil {
		return nil, err
	}
	cfg := multiuser.Config{TargetChain: chain, Horizon: sp.Horizon}
	if sp.Strategy != "" {
		if cfg.Strategy, err = chaff.NewByName(sp.Strategy, chain); err != nil {
			return nil, err
		}
		cfg.NumChaffs = sp.NumChaffs
	}
	if sp.Advanced {
		if sp.Strategy == "" {
			return nil, errors.New("scenario: advanced eavesdropper needs a strategy to recognize")
		}
		if cfg.CappedGamma, err = specGamma(sp, chain); err != nil {
			return nil, err
		}
	}
	for mi, m := range sp.Population {
		mchain := chain
		if m.Model != "" && m.Model != sp.Model {
			if mchain, err = buildChain(m.Model, sp); err != nil {
				return nil, fmt.Errorf("scenario: population member %d: %w", mi, err)
			}
			if mchain.NumStates() != chain.NumStates() {
				return nil, fmt.Errorf("scenario: population member %d model %q has %d cells, target has %d",
					mi, m.Model, mchain.NumStates(), chain.NumStates())
			}
		}
		var mstrat chaff.Strategy
		chaffs := 0
		if m.Strategy != "" {
			if mstrat, err = chaff.NewByName(m.Strategy, mchain); err != nil {
				return nil, fmt.Errorf("scenario: population member %d: %w", mi, err)
			}
			if chaffs = m.NumChaffs; chaffs <= 0 {
				chaffs = 1
			}
		}
		count := m.Count
		if count <= 0 {
			count = 1
		}
		for i := 0; i < count; i++ {
			cfg.OtherChains = append(cfg.OtherChains, mchain)
			cfg.OtherStrategies = append(cfg.OtherStrategies, mstrat)
			cfg.OtherNumChaffs = append(cfg.OtherNumChaffs, chaffs)
		}
	}
	res, err := multiuser.Run(ctx, cfg, sp.options(shard))
	if err != nil {
		return nil, err
	}
	rep := sp.envelope(shard)
	rep.Series = map[string]engine.SeriesSnapshot{
		report.SeriesTracking: res.TrackStats.Snapshot(),
	}
	return rep, nil
}
