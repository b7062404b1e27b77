package chaff

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"chaffmec/internal/markov"
)

// ErrNoGamma marks strategies that are valid but have no deterministic
// trajectory map Γ for the advanced eavesdropper to exploit (IM, whose
// chaffs are independent samples, and Rollout). Callers that want to
// degrade to the basic detector in that case — and ONLY in that case —
// test errors.Is(err, ErrNoGamma); any other GammaByName error is a real
// construction failure (unknown strategy, solver failure) and must not
// be swallowed.
var ErrNoGamma = errors.New("has no deterministic Γ")

// NewByName constructs the strategy with the given paper abbreviation
// (case-insensitive): IM, ML, CML, OO, MO, RML, ROO, RMO, or Rollout.
func NewByName(name string, chain *markov.Chain) (Strategy, error) {
	switch strings.ToUpper(strings.TrimSpace(name)) {
	case "IM":
		return NewIM(chain), nil
	case "ML":
		return NewML(chain), nil
	case "CML":
		return NewCML(chain), nil
	case "OO":
		return NewOO(chain), nil
	case "MO":
		return NewMO(chain), nil
	case "RML":
		return NewRML(chain), nil
	case "ROO":
		return NewROO(chain), nil
	case "RMO":
		return NewRMO(chain), nil
	case "ROLLOUT":
		return NewRollout(chain), nil
	case "APPROXDP":
		return NewApproxDP(chain)
	default:
		return nil, fmt.Errorf("chaff: unknown strategy %q (known: %s)", name, strings.Join(Names(), ", "))
	}
}

// Known reports whether NewByName knows name: whether it names one of
// Names under NewByName's case folding and trimming.
func Known(name string) bool {
	name = strings.ToUpper(strings.TrimSpace(name))
	for _, n := range Names() {
		if strings.ToUpper(n) == name {
			return true
		}
	}
	return false
}

// Names lists the registered strategy names in sorted order.
func Names() []string {
	n := []string{"IM", "ML", "CML", "OO", "MO", "RML", "ROO", "RMO", "Rollout", "ApproxDP"}
	sort.Strings(n)
	return n
}

// GammaByName returns the deterministic trajectory map Γ of a strategy
// family, as assumed by the advanced eavesdropper of Section VI-A: ML,
// CML, OO, MO and ApproxDP have one (the robust variants are recognized
// through their deterministic originals: RML→ML, ROO→OO, RMO→MO); IM has
// none. The returned func satisfies detect.GammaFunc.
func GammaByName(name string, chain *markov.Chain) (func(markov.Trajectory) (markov.Trajectory, error), error) {
	switch strings.ToUpper(strings.TrimSpace(name)) {
	case "ML", "RML":
		return NewML(chain).Gamma, nil
	case "CML":
		return NewCML(chain).Gamma, nil
	case "OO", "ROO":
		return NewOO(chain).Gamma, nil
	case "MO", "RMO":
		return NewMO(chain).Gamma, nil
	case "APPROXDP":
		dp, err := NewApproxDP(chain)
		if err != nil {
			return nil, err
		}
		return dp.Gamma, nil
	default:
		// Distinguish "known strategy without a Γ" (IM, Rollout) from an
		// unknown name: only the former is an ErrNoGamma.
		if _, err := NewByName(name, chain); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("chaff: strategy %q %w", name, ErrNoGamma)
	}
}

// CappedGammaByName is GammaByName with a co-location cap, the form the
// advanced eavesdropper calls (it satisfies detect.CappedGammaFunc): OO
// and ROO map to OO.GammaWithin, which stops its DP at the cap; every
// other Γ has no cheap bound and ignores the cap.
func CappedGammaByName(name string, chain *markov.Chain) (func(markov.Trajectory, int) (markov.Trajectory, error), error) {
	switch strings.ToUpper(strings.TrimSpace(name)) {
	case "OO", "ROO":
		return NewOO(chain).GammaWithin, nil
	}
	gamma, err := GammaByName(name, chain)
	if err != nil {
		return nil, err
	}
	return func(user markov.Trajectory, _ int) (markov.Trajectory, error) { return gamma(user) }, nil
}
