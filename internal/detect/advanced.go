package detect

import (
	"fmt"

	"chaffmec/internal/markov"
)

// GammaFunc maps a hypothetical user trajectory to the chaff trajectory a
// deterministic strategy would generate for it (the Γ_i(·) of Section
// VI-A.3). For the ML strategy Γ is constant in its argument.
type GammaFunc func(user markov.Trajectory) (markov.Trajectory, error)

// CappedGammaFunc is Γ with a co-location cap: it returns Γ(user), or
// nil once it has proved that Γ(user) co-locates with user more than
// within times, and so equals no trajectory that co-locates with user at
// most within times. Returning the full Γ(user) is always correct, and a
// cap ≥ len(user) never binds. Errors are Γ's own, whatever the cap.
type CappedGammaFunc func(user markov.Trajectory, within int) (markov.Trajectory, error)

// AdvancedDetector is the strategy-aware eavesdropper of Section VI-A: it
// knows the user's chaff-control strategy (including its deterministic
// tie-breaking) and first filters out every observed trajectory that the
// strategy would have generated as a chaff for one of the other observed
// trajectories; it then runs ML detection on the remainder. If every
// trajectory is filtered out, it falls back to a uniform random guess
// (expected value reported by the metrics).
//
// The filter only asks whether some other x_u equals Γ(x_v), and it has
// three ways to answer without a full Γ(x_v):
//
//   - The co-location cap. x_u can equal Γ(x_v) only if it co-locates
//     with x_v as often as Γ(x_v) does, so Γ(x_v) is computed with the
//     cap within = max over u≠v of the slots x_u shares with x_v. OO
//     proves a miss after budget column within of its DP
//     (chaff.OO.GammaWithin), instead of filling columns up to i*. The
//     cap cannot help when two observed trajectories coincide, as the
//     replicated chaffs of N−1 > 1 deterministic chaffs do: their cap
//     is T. Strategies with no cheap bound (ML, CML, MO, ApproxDP)
//     ignore it.
//   - A miss proof (NewSelfGammaDetector's provesMiss), consulted before
//     Γ: for OO, chaff.OO.ProvesMiss shows from trajectory costs alone
//     that no other x_u can pass Γ(x_v)'s stop test, replicated chaffs
//     included.
//   - A known Γ (NewSelfGammaDetector): when the observed chaff is the
//     generator's own Γ(user), ScoreBlock reads Γ(user) from the block
//     instead of computing it again.
type AdvancedDetector struct {
	ml    *MLDetector
	gamma CappedGammaFunc
	// provesMiss, when set, is asked before each Γ(trs[v]) call; true
	// proves that Γ(trs[v]) equals no other trs[u] and skips the call.
	provesMiss func(trs []markov.Trajectory, v int) bool
	// selfGamma makes ScoreBlock take column user+1 of every run to be
	// Γ(column user).
	selfGamma bool
}

// NewAdvancedDetector builds an advanced eavesdropper from the mobility
// model and the strategy's trajectory map. gamma must never be nil. The
// detector computes the full Γ: it drops the co-location cap.
func NewAdvancedDetector(chain *markov.Chain, gamma GammaFunc) (*AdvancedDetector, error) {
	if gamma == nil {
		return nil, fmt.Errorf("detect: advanced detector needs a strategy map Γ")
	}
	return NewCappedAdvancedDetector(chain, func(user markov.Trajectory, _ int) (markov.Trajectory, error) {
		return gamma(user)
	})
}

// NewCappedAdvancedDetector is NewAdvancedDetector over a Γ that takes
// the co-location cap. Its survivors are the same bits.
func NewCappedAdvancedDetector(chain *markov.Chain, gamma CappedGammaFunc) (*AdvancedDetector, error) {
	if gamma == nil {
		return nil, fmt.Errorf("detect: advanced detector needs a strategy map Γ")
	}
	return &AdvancedDetector{ml: NewMLDetector(chain), gamma: gamma}, nil
}

// NewSelfGammaDetector is the advanced eavesdropper of observations
// whose chaffs the strategy under attack generated as its own Γ(user),
// replicated: the single kind against a deterministic strategy. Its
// ScoreBlock takes column user+1 of every run to be Γ(column user), so
// it never recomputes the generator's plan, and evaluates gamma on the
// other columns only where provesMiss (nil: never) cannot rule them
// out. Its survivors are the same bits as NewCappedAdvancedDetector's
// over the same gamma, provided the premise on column user+1 holds.
func NewSelfGammaDetector(chain *markov.Chain, gamma CappedGammaFunc, provesMiss func(trs []markov.Trajectory, v int) bool) (*AdvancedDetector, error) {
	d, err := NewCappedAdvancedDetector(chain, gamma)
	if err != nil {
		return nil, err
	}
	d.provesMiss, d.selfGamma = provesMiss, true
	return d, nil
}

// Survivors computes the filter: include[u] is false when trajectory u
// matches Γ(x_v) for some other observed trajectory v, i.e. when u is
// recognizably a chaff for v.
func (d *AdvancedDetector) Survivors(trs []markov.Trajectory) ([]bool, error) {
	return d.survivorsInto(make([]bool, len(trs)), trs)
}

// survivorsInto computes the filter into include (len(trs) entries).
func (d *AdvancedDetector) survivorsInto(include []bool, trs []markov.Trajectory) ([]bool, error) {
	return d.filterInto(include, trs, -1)
}

// filterInto is survivorsInto given that trs[known+1] is Γ(trs[known])
// when known ≥ 0: that Γ is read, not recomputed.
func (d *AdvancedDetector) filterInto(include []bool, trs []markov.Trajectory, known int) ([]bool, error) {
	for u := range include {
		include[u] = true
	}
	for v, tr := range trs {
		var ch markov.Trajectory
		switch {
		case v == known:
			ch = trs[v+1]
		case d.provesMiss != nil && d.provesMiss(trs, v):
			continue // proved to match no other trajectory
		default:
			var err error
			if ch, err = d.gamma(tr, colocationCap(trs, v)); err != nil {
				return nil, fmt.Errorf("detect: evaluating Γ on trajectory %d: %w", v, err)
			}
			if ch == nil {
				continue // proved to match no other trajectory
			}
		}
		for u, cand := range trs {
			if u == v {
				continue
			}
			if cand.Equal(ch) {
				include[u] = false
			}
		}
	}
	return include, nil
}

// colocationCap is the cap for Γ(trs[v]): the most slots any other
// observed trajectory of the same length shares with trs[v], or −1 when
// there is none.
func colocationCap(trs []markov.Trajectory, v int) int {
	within := -1
	for u, cand := range trs {
		if u != v && len(cand) == len(trs[v]) {
			within = max(within, cand.Intersections(trs[v]))
		}
	}
	return within
}

// PrefixDetections returns, for every slot, the detector's tie set after
// filtering. The filter is computed once on the full trajectories — the
// eavesdropper analyses a recorded observation window — and the per-slot
// curve comes from prefix ML detection among the survivors.
func (d *AdvancedDetector) PrefixDetections(trs []markov.Trajectory) ([][]int, error) {
	return d.PrefixDetectionsWith(NewWorkspace(), trs)
}

// PrefixDetectionsWith is PrefixDetections with caller-owned buffers; the
// returned tie sets alias ws and stay valid until its next use.
func (d *AdvancedDetector) PrefixDetectionsWith(ws *Workspace, trs []markov.Trajectory) ([][]int, error) {
	include, err := d.survivorsInto(ws.bools(len(trs)), trs)
	if err != nil {
		return nil, err
	}
	return d.ml.prefixDetectionsInto(ws, trs, include)
}

// Detect returns the tie set for the full trajectories after filtering.
func (d *AdvancedDetector) Detect(trs []markov.Trajectory) ([]int, error) {
	dets, err := d.PrefixDetections(trs)
	if err != nil {
		return nil, err
	}
	return dets[len(dets)-1], nil
}
