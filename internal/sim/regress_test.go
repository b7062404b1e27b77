package sim

import (
	"context"
	"math"
	"testing"

	"chaffmec/internal/chaff"
	"chaffmec/internal/engine"
	"chaffmec/internal/mobility"
)

// The values below pin the current sampled streams against accidental
// drift. They were re-recorded ONCE, deliberately, when the repository
// moved onto the internal/rng substrate (PR 2): per-run streams are now
// splitmix64 (reseedable per-worker sources) instead of math/rand's
// lagged-Fibonacci source, and markov.Chain.Sample maps uniforms to
// states through Walker alias tables instead of the linear cumulative
// scan — both change which trajectories a given (seed, run) draws, by
// design. The run→stream derivation itself (rng.Derive, the old
// engine.MixSeed algorithm) is unchanged. Any future difference here is
// a regression unless it is an equally deliberate, documented stream
// change re-pinned in the same commit (see the internal/rng package doc
// for the stream-stability contract).
const pinTol = 1e-12

func assertSeries(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", name, len(got), len(want))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > pinTol {
			t.Fatalf("%s[%d] = %v, want %v", name, i, got[i], want[i])
		}
	}
}

func TestRunMatchesPreRefactorValues(t *testing.T) {
	c := modelChain(t, mobility.ModelSpatiallySkewed)
	mo := chaff.NewMO(c)
	cases := []struct {
		name                      string
		sc                        Scenario
		perSlot, stderr, detected []float64
		overall                   float64
	}{
		{
			name:    "MO-basic",
			sc:      Scenario{Chain: c, Strategy: mo, NumChaffs: 2, Horizon: 8},
			perSlot: []float64{0.21875, 0.09375000000000003, 0.09375000000000001, 0.0625, 0.0625, 0.03125, 0, 0.03125},
			stderr: []float64{0.07424858801742056, 0.052351460373382196, 0.0523514603733822,
				0.04347552147751578, 0.04347552147751578, 0.03125, 0, 0.031249999999999997},
			detected: []float64{0.07291666666666667, 0.03125, 0.010416666666666671,
				0, 0, 0, 0, 0},
			overall: 0.07421875,
		},
		{
			name:    "IM-basic",
			sc:      Scenario{Chain: c, Strategy: chaff.NewIM(c), NumChaffs: 3, Horizon: 8},
			perSlot: []float64{0.34375, 0.46874999999999994, 0.37500000000000006, 0.4375, 0.5, 0.43750000000000006, 0.37500000000000006, 0.34375000000000006},
			stderr: []float64{0.08530513305661303, 0.08962708359030336, 0.08695104295503155,
				0.08909830562090465, 0.08980265101338746, 0.08909830562090465,
				0.08695104295503155, 0.08530513305661303},
			detected: []float64{0.23958333333333334, 0.28125, 0.3125, 0.34375000000000006, 0.28125, 0.25,
				0.25, 0.28125},
			overall: 0.41015625,
		},
		{
			name: "MO-advanced",
			sc: Scenario{Chain: c, Strategy: mo, NumChaffs: 1, Horizon: 8,
				Advanced: true, Gamma: uncapped(mo.Gamma)},
			perSlot:  []float64{1, 1, 1, 1, 1, 1, 1, 1},
			stderr:   []float64{0, 0, 0, 0, 0, 0, 0, 0},
			detected: []float64{1, 1, 1, 1, 1, 1, 1, 1},
			overall:  1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(context.Background(), tc.sc, engine.Options{Runs: 32, Seed: 12345, Workers: 3})
			if err != nil {
				t.Fatal(err)
			}
			assertSeries(t, "PerSlot", res.PerSlot, tc.perSlot)
			assertSeries(t, "PerSlotStdErr", res.PerSlotStdErr, tc.stderr)
			assertSeries(t, "Detection", res.Detection, tc.detected)
			if math.Abs(res.Overall-tc.overall) > pinTol {
				t.Fatalf("Overall = %v, want %v", res.Overall, tc.overall)
			}
			if res.Runs != 32 {
				t.Fatalf("Runs = %d, want 32", res.Runs)
			}
		})
	}
}
