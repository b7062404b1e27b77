package scenario

import (
	"context"
	"testing"

	"chaffmec/internal/chaff"
	"chaffmec/internal/engine"
	"chaffmec/internal/markov"
	"chaffmec/internal/mobility"
	"chaffmec/internal/report"
	"chaffmec/internal/rng"
)

// The single pins fix the single kind's output against the
// strategy-aware eavesdropper at the advanced-oo shape: the
// spatially-skewed chain with 10 cells and model seed 2017, T=100, 300
// runs. They hold exact bits, so any rewrite of how the eavesdropper's
// Γ filter is evaluated (which Γ calls it makes, skips or proves
// needless) must reproduce them unedited. At that shape every
// deterministic strategy is tracked in every slot (digest
// 0xb6aebc12da98fe96), so a few cases also run the both-skewed chain
// with 5 cells at T=10, where the filter does not always single out
// the user.

// TestSinglePinnedBits pins the tracking and detection snapshots of a
// 300-run advanced single job for each deterministic strategy (OO with
// one and with two replicated chaffs, which cap each other at T; MO;
// ML with two chaffs; CML; ApproxDP), for ROO, whose chaffs the
// eavesdropper recognises through OO's Γ, and for an injected Γ: OO's
// chaffs filtered through MO's map. ROO with two chaffs and the small
// shape's cases are the ones whose tracking is not 1 everywhere.
func TestSinglePinnedBits(t *testing.T) {
	base := Spec{Kind: "single", Model: "spatially-skewed", Cells: 10, ModelSeed: 2017,
		Horizon: 100, Runs: 300, Seed: 2017, Workers: 2, Advanced: true}
	chain, err := mobility.Build(mobility.ModelSpatiallySkewed, rng.New(2017), 10)
	if err != nil {
		t.Fatal(err)
	}
	moGamma := chaff.NewMO(chain).Gamma
	injected := func(user markov.Trajectory, _ int) (markov.Trajectory, error) { return moGamma(user) }
	cases := []struct {
		name          string
		strategy      string
		chaffs        int
		injectMO      bool
		small         bool
		track, detect uint64
	}{
		{"OO", "OO", 1, false, false, 0xb6aebc12da98fe96, 0xb6aebc12da98fe96},
		{"OO2", "OO", 2, false, false, 0xb6aebc12da98fe96, 0xb6aebc12da98fe96},
		{"MO", "MO", 1, false, false, 0xb6aebc12da98fe96, 0xb6aebc12da98fe96},
		{"ML2", "ML", 2, false, false, 0xb6aebc12da98fe96, 0xb6aebc12da98fe96},
		{"CML", "CML", 1, false, false, 0xb6aebc12da98fe96, 0xb6aebc12da98fe96},
		{"ApproxDP", "ApproxDP", 1, false, false, 0xb6aebc12da98fe96, 0xb6aebc12da98fe96},
		{"ROO", "ROO", 1, false, false, 0xb6aebc12da98fe96, 0xb6aebc12da98fe96},
		{"ROO2", "ROO", 2, false, false, 0x508dc390fafcec2c, 0x508dc390fafcec2c},
		{"OO-injected-MO", "OO", 1, true, false, 0x73ace4b7f74fcd58, 0x73ace4b7f74fcd58},
		{"small-OO2", "OO", 2, false, true, 0x3e6231a26833d3cc, 0xdf0d5ff330633dcc},
		{"small-CML", "CML", 1, false, true, 0xa86bde6c80b42b8c, 0xa86bde6c80b42b8c},
		{"small-ROO2", "ROO", 2, false, true, 0x7ddc62d9c9c39cc5, 0xd9f5bd8cc2483d0b},
	}
	for _, c := range cases {
		sp := base
		sp.Strategy, sp.NumChaffs = c.strategy, c.chaffs
		if c.small {
			sp.Model, sp.Cells, sp.Horizon = "both-skewed", 5, 10
		}
		if c.injectMO {
			sp.Gamma = injected
		}
		rep, err := runSingle(context.Background(), sp, engine.Shard{})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, s := range []struct {
			series string
			want   uint64
		}{{report.SeriesTracking, c.track}, {report.SeriesDetection, c.detect}} {
			snap := rep.Series[s.series]
			if snap.T != sp.Horizon || snap.Next != 300 {
				t.Fatalf("%s: %s snapshot covers T=%d, %d runs; want %d, 300", c.name, s.series, snap.T, snap.Next, sp.Horizon)
			}
			if got := traceSnapshotDigest(snap); got != s.want {
				t.Errorf("%s: %s digest %#x, want %#x", c.name, s.series, got, s.want)
			}
		}
	}
}
