package scenario

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"chaffmec/internal/chaff"
	"chaffmec/internal/engine"
	"chaffmec/internal/markov"
	"chaffmec/internal/report"
	"chaffmec/internal/sim"
)

// ErrBadSpec marks a spec a kind refuses as configured: a missing or
// contradictory field, or a model the kind cannot build. No worker could
// run such a spec, so a fleet fails the job instead of retrying it.
var ErrBadSpec = errors.New("scenario: bad spec")

// badSpec is an ErrBadSpec saying what is wrong.
func badSpec(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrBadSpec}, args...)...)
}

var errNothingToRecognize = badSpec("advanced eavesdropper needs a strategy to recognize")

// The synthetic population kinds differ only in the sim.Scenario they
// build over the target's chain; populationKind runs each.
var (
	runSingle    = populationKind(singleScenario, true)
	runMultiuser = populationKind(multiuserScenario, false)
	runMixed     = populationKind(mixedScenario, true)
	runHetero    = populationKind(heteroScenario, false)
)

// populationKind is the one runner of the synthetic population kinds:
// it builds the target's chain and, through build, the kind's scenario,
// runs it on sim.Run and writes the envelope — with the detection
// series when detection is set.
func populationKind(build func(sp Spec, chain *markov.Chain) (sim.Scenario, error), detection bool) Runner {
	return func(ctx context.Context, sp Spec, shard engine.Shard) (*report.Report, error) {
		chain, err := buildChain(sp.Model, sp)
		if err != nil {
			return nil, err
		}
		sc, err := build(sp, chain)
		if err != nil {
			return nil, err
		}
		res, err := sim.Run(ctx, sc, sp.options(shard))
		if err != nil {
			return nil, err
		}
		rep := sp.envelope(shard)
		rep.Series = map[string]engine.SeriesSnapshot{report.SeriesTracking: res.TrackStats.Snapshot()}
		if detection {
			rep.Series[report.SeriesDetection] = res.DetectionStats.Snapshot()
		}
		return rep, nil
	}
}

// singleScenario is one user and one chaff strategy, watched by the
// basic or the strategy-aware eavesdropper.
func singleScenario(sp Spec, chain *markov.Chain) (sim.Scenario, error) {
	if sp.Strategy == "" {
		return sim.Scenario{}, badSpec(`kind "single" needs a strategy`)
	}
	return crowdScenario(sp, chain, nil)
}

// multiuserScenario is a target among OtherUsers unprotected users
// following OtherModel: a "hetero" population of one unprotected member.
func multiuserScenario(sp Spec, chain *markov.Chain) (sim.Scenario, error) {
	var members []Member
	if sp.OtherUsers > 0 {
		members = []Member{{Model: sp.OtherModel, Count: sp.OtherUsers}}
	}
	return crowdScenario(sp, chain, members)
}

// heteroScenario is a heterogeneous population: every Population member
// contributes Count coexisting users following their own mobility model
// and running their own chaff strategy.
func heteroScenario(sp Spec, chain *markov.Chain) (sim.Scenario, error) {
	if len(sp.Population) == 0 {
		return sim.Scenario{}, badSpec(`kind "hetero" needs a population`)
	}
	return crowdScenario(sp, chain, sp.Population)
}

// crowdScenario is a target protected by Spec.Strategy (unprotected
// when empty) among the members' users, watched by the basic or
// (Spec.Advanced) strategy-aware eavesdropper.
func crowdScenario(sp Spec, chain *markov.Chain, members []Member) (sim.Scenario, error) {
	if sp.Advanced && sp.Strategy == "" {
		return sim.Scenario{}, errNothingToRecognize
	}
	// Unless one is injected, the scenario resolves the eavesdropper's Γ
	// itself (sim.Scenario.Gamma).
	sc := sim.Scenario{Chain: chain, Horizon: sp.Horizon, Advanced: sp.Advanced, Gamma: sp.Gamma}
	var err error
	if sp.Strategy != "" {
		if sc.Strategy, err = chaff.NewByName(sp.Strategy, chain); err != nil {
			return sc, err
		}
		sc.NumChaffs = sp.NumChaffs
	}
	for mi, m := range members {
		o := sim.Other{Chain: chain}
		if m.Model != "" && m.Model != sp.Model {
			if o.Chain, err = buildChain(m.Model, sp); err != nil {
				return sc, fmt.Errorf("scenario: population member %d: %w", mi, err)
			}
			if o.Chain.NumStates() != chain.NumStates() {
				return sc, badSpec("population member %d model %q has %d cells, target has %d",
					mi, m.Model, o.Chain.NumStates(), chain.NumStates())
			}
		}
		if m.Strategy != "" {
			if o.Strategy, err = chaff.NewByName(m.Strategy, o.Chain); err != nil {
				return sc, fmt.Errorf("scenario: population member %d: %w", mi, err)
			}
			o.NumChaffs = max(m.NumChaffs, 1)
		}
		for range max(m.Count, 1) {
			sc.Others = append(sc.Others, o)
		}
	}
	return sc, nil
}

// mixedScenario is a mixed-strategy chaff population: every strategy in
// Strategies contributes NumChaffs chaffs for the same user, and the
// basic ML eavesdropper observes the union. No strategy-aware
// eavesdropper knows the union, so Advanced is refused.
func mixedScenario(sp Spec, chain *markov.Chain) (sim.Scenario, error) {
	if len(sp.Strategies) == 0 {
		return sim.Scenario{}, badSpec(`kind "mixed" needs strategies`)
	}
	if sp.Advanced {
		return sim.Scenario{}, badSpec(`kind "mixed" runs the basic eavesdropper only; drop "advanced"`)
	}
	union := &unionStrategy{per: sp.NumChaffs}
	for _, name := range sp.Strategies {
		s, err := chaff.NewByName(name, chain)
		if err != nil {
			return sim.Scenario{}, err
		}
		union.strategies = append(union.strategies, s)
	}
	return sim.Scenario{Chain: chain, Strategy: union, NumChaffs: sp.NumChaffs * len(union.strategies), Horizon: sp.Horizon}, nil
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
