package detect

import (
	"errors"
	"fmt"

	"chaffmec/internal/markov"
)

// TrackingAccuracySeries returns, for each slot t, the expected
// probability that the eavesdropper's pick is at the user's location:
// (1/|tie set|)·Σ_{u∈tie set} 1{x_{u,t} = x_{user,t}} (Section II-D).
// Note detection need not be correct for tracking to succeed: a chaff
// standing on the user's cell also tracks the user.
func TrackingAccuracySeries(dets [][]int, trs []markov.Trajectory, userIdx int) ([]float64, error) {
	if userIdx < 0 || userIdx >= len(trs) {
		return nil, fmt.Errorf("detect: user index %d outside [0,%d)", userIdx, len(trs))
	}
	if len(dets) != len(trs[userIdx]) {
		return nil, errors.New("detect: detections/trajectory length mismatch")
	}
	out := make([]float64, len(dets))
	user := trs[userIdx]
	for t, set := range dets {
		if len(set) == 0 {
			return nil, fmt.Errorf("detect: empty tie set at slot %d", t)
		}
		hit := 0
		for _, u := range set {
			if trs[u][t] == user[t] {
				hit++
			}
		}
		out[t] = float64(hit) / float64(len(set))
	}
	return out, nil
}

// DetectionAccuracySeries returns, for each slot t, the expected
// probability that the eavesdropper picks the user's own trajectory.
func DetectionAccuracySeries(dets [][]int, numTrajectories, userIdx int) ([]float64, error) {
	if userIdx < 0 || userIdx >= numTrajectories {
		return nil, fmt.Errorf("detect: user index %d outside [0,%d)", userIdx, numTrajectories)
	}
	out := make([]float64, len(dets))
	for t, set := range dets {
		if len(set) == 0 {
			return nil, fmt.Errorf("detect: empty tie set at slot %d", t)
		}
		for _, u := range set {
			if u == userIdx {
				out[t] = 1 / float64(len(set))
				break
			}
		}
	}
	return out, nil
}

// TimeAverage returns the mean of a per-slot series — the paper's overall
// tracking accuracy (1/T)·Σ_t.
func TimeAverage(series []float64) float64 {
	if len(series) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range series {
		s += v
	}
	return s / float64(len(series))
}
