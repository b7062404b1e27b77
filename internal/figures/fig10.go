package figures

import (
	"fmt"
	"math/rand"

	"chaffmec/internal/chaff"
	"chaffmec/internal/detect"
	"chaffmec/internal/markov"
)

// Fig10 reproduces Fig. 10: tracking accuracy of the advanced
// (strategy-aware) eavesdropper for the top-K users under two chaffs,
// comparing the original strategies (IM, ML, OO, MO) — which are
// ineffective — against the robust randomized ones (RMO, RML, ROO).
// Like Fig9b, the (user × strategy) grid runs on the engine worker
// pool, every cell averaging over opts.Runs (default one) engine-derived
// chaff streams — adaptively extended per cell under opts.TargetSE, with
// error bars in StdErr; the output is deterministic for any worker
// count.
func Fig10(lab *TraceLab, topK int, seed int64, opts GridOptions) (*TraceBarResult, error) {
	return fig10(lab, topK, seed, opts, chaff.CappedGammaByName)
}

// fig10 is Fig10 with the family → Γ map as a parameter.
func fig10(lab *TraceLab, topK int, seed int64, opts GridOptions,
	gammaOf func(string, *markov.Chain) (func(markov.Trajectory, int) (markov.Trajectory, error), error)) (*TraceBarResult, error) {
	top, _, err := lab.TopUsers(topK)
	if err != nil {
		return nil, err
	}
	// Γ maps: the advanced eavesdropper knows the strategy family and its
	// deterministic core. IM has no deterministic map (nil ⇒ plain ML
	// detection, Section VI-A.1); the robust variants are recognized via
	// their deterministic originals.
	gammas := map[string]detect.CappedGammaFunc{}
	for _, family := range []string{"ML", "OO", "MO"} {
		if gammas[family], err = gammaOf(family, lab.Chain); err != nil {
			return nil, err
		}
	}
	strategies := []struct {
		label string
		build func() chaff.Strategy
		gamma detect.CappedGammaFunc
	}{
		{"IM", func() chaff.Strategy { return chaff.NewIM(lab.Chain) }, nil},
		{"ML", func() chaff.Strategy { return chaff.NewML(lab.Chain) }, gammas["ML"]},
		{"OO", func() chaff.Strategy { return chaff.NewOO(lab.Chain) }, gammas["OO"]},
		{"MO", func() chaff.Strategy { return chaff.NewMO(lab.Chain) }, gammas["MO"]},
		{"RMO", func() chaff.Strategy { return chaff.NewRMO(lab.Chain) }, gammas["MO"]},
		{"RML", func() chaff.Strategy { return chaff.NewRML(lab.Chain) }, gammas["ML"]},
		{"ROO", func() chaff.Strategy { return chaff.NewROO(lab.Chain) }, gammas["OO"]},
		// k=4 variants probe whether deeper perturbation escapes the
		// advanced filter. On low-entropy empirical chains it often does
		// not: the filter's reference family {Γ(x_v)} over all observed
		// trajectories enumerates the few high-likelihood corridor paths
		// that any perturbed variant lands on (see EXPERIMENTS.md for the
		// analysis; RML is immune because Γ_ML has a one-element image).
		{"RML4", func() chaff.Strategy { s := chaff.NewRML(lab.Chain); s.Pairs = 4; return s }, gammas["ML"]},
		{"ROO4", func() chaff.Strategy { s := chaff.NewROO(lab.Chain); s.Pairs = 4; return s }, gammas["OO"]},
	}
	const numChaffs = 2
	labels := make([]string, len(strategies))
	for i, s := range strategies {
		labels[i] = s.label
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
		s := strategies[c.si]
		acc, err := lab.userAccuracyWithChaffs(top[c.rank], s.build(), numChaffs, rng, s.gamma)
		if err != nil {
			return 0, fmt.Errorf("figures: fig10 user %s strategy %s: %w", lab.Nodes[top[c.rank]], s.label, err)
		}
		return acc, nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}
