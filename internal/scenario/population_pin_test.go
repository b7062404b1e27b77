package scenario

import (
	"context"
	"testing"

	"chaffmec/internal/report"
)

// TestPopulationPinnedBits pins the tracking snapshot (and, for the
// "mixed" kind, the detection snapshot) of the synthetic population
// kinds: a target among coexisting users, protected or not, against the
// basic or strategy-aware eavesdropper, and a mixed chaff population.
// The jobs go through RunJob, so how the kinds are wired to the
// Monte-Carlo harness may change freely; every bit must not.
func TestPopulationPinnedBits(t *testing.T) {
	cases := []struct {
		name          string
		spec          Spec
		track, detect uint64 // detect 0: the kind publishes no detection series
	}{
		{"multiuser-MO-3", Spec{Kind: "multiuser", Model: "spatially-skewed", OtherUsers: 3,
			Strategy: "MO", Horizon: 40, Runs: 200, Seed: 7}, 0x1d1389511084443d, 0},
		{"multiuser-advanced-RMO2", Spec{Kind: "multiuser", Model: "spatially-skewed", OtherUsers: 4,
			Strategy: "RMO", NumChaffs: 2, Advanced: true, Horizon: 50, Runs: 200, Seed: 1}, 0x8969a0978808a3b9, 0},
		{"multiuser-other-model", Spec{Kind: "multiuser", Model: "spatially-skewed", OtherModel: "both-skewed",
			OtherUsers: 2, Strategy: "IM", Horizon: 40, Runs: 200, Seed: 3}, 0x539b2e613a1e2e46, 0},
		{"multiuser-unprotected", Spec{Kind: "multiuser", Model: "both-skewed", OtherUsers: 2,
			Horizon: 30, Runs: 200, Seed: 5}, 0x4eb94ce427ebd445, 0},
		{"multiuser-advanced-OO-alone", Spec{Kind: "multiuser", Model: "spatially-skewed",
			Strategy: "OO", Advanced: true, Horizon: 40, Runs: 100, Seed: 11}, 0x068d7e9eddb39dad, 0},
		{"hetero-crowd", Spec{Kind: "hetero", Model: "spatially-skewed", Strategy: "MO",
			Population: []Member{
				{Strategy: "IM", NumChaffs: 1, Count: 3},
				{Strategy: "RMO", NumChaffs: 2, Count: 2},
				{Count: 4},
			}, Horizon: 50, Runs: 200, Seed: 1}, 0x66a4b5819b216f9a, 0},
		{"hetero-advanced-MO", Spec{Kind: "hetero", Model: "spatially-skewed", Strategy: "MO", Advanced: true,
			Population: []Member{{Strategy: "MO", Count: 2}, {Model: "non-skewed", Count: 1}},
			Horizon:    40, Runs: 200, Seed: 13}, 0xaf131de79ce1a4a2, 0},
		{"mixed-IM-MO-RMO", Spec{Kind: "mixed", Strategies: []string{"IM", "MO", "RMO"}, NumChaffs: 2,
			Horizon: 50, Runs: 200, Seed: 1}, 0xc44396ebac5854ac, 0xd7a0b9c1225ff24f},
	}
	for _, c := range cases {
		c.spec.Workers = 2
		rep, err := RunJob(context.Background(), Job{Spec: c.spec})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		wants := map[string]uint64{report.SeriesTracking: c.track}
		if c.detect != 0 {
			wants[report.SeriesDetection] = c.detect
		}
		if len(rep.Series) != len(wants) {
			t.Fatalf("%s: report has %d series, want %d", c.name, len(rep.Series), len(wants))
		}
		for name, want := range wants {
			snap, ok := rep.Series[name]
			if !ok || snap.T != c.spec.Horizon || snap.Next != int64(c.spec.Runs) {
				t.Fatalf("%s: %s snapshot covers T=%d, %d runs; want %d, %d", c.name, name, snap.T, snap.Next, c.spec.Horizon, c.spec.Runs)
			}
			if got := traceSnapshotDigest(snap); got != want {
				t.Errorf("%s: %s digest %#x, want %#x", c.name, name, got, want)
			}
		}
	}
}
