package figures

import (
	"fmt"
	"math/rand"

	"chaffmec/internal/chaff"
	"chaffmec/internal/markov"
	"chaffmec/internal/sim"
)

// Fig10 reproduces Fig. 10: tracking accuracy of the advanced
// (strategy-aware) eavesdropper for the top-K users under two chaffs,
// comparing the original strategies (IM, ML, OO, MO) — which are
// ineffective — against the robust randomized ones (RMO, RML, ROO).
// Every column's eavesdropper assumes the Γ chaff.CappedGammaByName
// resolves for its strategy, as the trace scenario kind's does: the
// robust variants are recognized through their deterministic originals,
// and against IM, which has no Γ, it is the basic ML detector (Section
// VI-A.1). Like Fig9b, the (user × strategy) grid runs on the engine
// worker pool, every cell averaging over opts.Runs (default one)
// engine-derived chaff streams — adaptively extended per cell under
// opts.TargetSE, with error bars in StdErr; the output is deterministic
// for any worker count.
func Fig10(lab *TraceLab, topK int, seed int64, opts GridOptions) (*TraceBarResult, error) {
	return fig10(lab, topK, seed, opts, chaff.CappedGammaByName)
}

// fig10 is Fig10 with the strategy → Γ map as a parameter.
func fig10(lab *TraceLab, topK int, seed int64, opts GridOptions,
	gammaOf func(string, *markov.Chain) (func(markov.Trajectory, int) (markov.Trajectory, error), error)) (*TraceBarResult, error) {
	top, _, err := lab.TopUsers(topK)
	if err != nil {
		return nil, err
	}
	// The k=4 variants probe whether deeper perturbation escapes the
	// advanced filter. On low-entropy empirical chains it often does
	// not: the filter's reference family {Γ(x_v)} over all observed
	// trajectories enumerates the few high-likelihood corridor paths
	// that any perturbed variant lands on (see EXPERIMENTS.md for the
	// analysis; RML is immune because Γ_ML has a one-element image).
	rml4, roo4 := chaff.NewRML(lab.Chain), chaff.NewROO(lab.Chain)
	rml4.Pairs, roo4.Pairs = 4, 4
	labels := []string{"IM", "ML", "OO", "MO", "RMO", "RML", "ROO", "RML4", "ROO4"}
	strategies := []chaff.Strategy{chaff.NewIM(lab.Chain), chaff.NewML(lab.Chain), chaff.NewOO(lab.Chain), chaff.NewMO(lab.Chain),
		chaff.NewRMO(lab.Chain), chaff.NewRML(lab.Chain), chaff.NewROO(lab.Chain), rml4, roo4}
	const numChaffs = 2
	traces := make([]*sim.Trace, len(strategies))
	for si, strategy := range strategies {
		gamma, err := gammaOf(strategy.Name(), lab.Chain)
		if err != nil {
			return nil, err
		}
		if traces[si], err = lab.trace(strategy, numChaffs, true, gamma); err != nil {
			return nil, err
		}
	}
	res := newTraceBarResult(len(top), labels)
	var cells []gridCell
	for rank, u := range top {
		res.Users = append(res.Users, lab.Nodes[u])
		res.UserIdx = append(res.UserIdx, u)
		for si := range strategies {
			cells = append(cells, gridCell{rank, si})
		}
	}
	err = runGrid(res, cells, seed, opts, func(c gridCell, rng *rand.Rand) (float64, error) {
		acc, err := traceAccuracy(traces[c.si], top[c.rank], rng)
		if err != nil {
			return 0, fmt.Errorf("figures: fig10 user %s strategy %s: %w", lab.Nodes[top[c.rank]], labels[c.si], err)
		}
		return acc, nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}
