package sim

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"chaffmec/internal/chaff"
	"chaffmec/internal/engine"
	"chaffmec/internal/markov"
	"chaffmec/internal/mobility"
	"chaffmec/internal/rng"
)

// The OO pins fix the optimal offline planner's output at the
// advanced-eavesdropper workload shape: the spatially-skewed chain with
// L=10 and model seed 2017, T=100. They hold the planner's exact bits
// (trajectory, i*, Strict and both costs), not only its properties, so
// any rewrite of the Algorithm 1 dynamic program must reproduce them
// unedited.

func ooPinChain(t *testing.T) *markov.Chain {
	t.Helper()
	c, err := mobility.Build(mobility.ModelSpatiallySkewed, rng.New(2017), 10)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestOOAdvancedMatchesPinnedValues(t *testing.T) {
	c := ooPinChain(t)
	oo := chaff.NewOO(c)
	ooSeries := []float64{0.28125, 0.21875, 0.15625, 0.15625, 0.0625, 0.0625, 0.0625, 0.0625, 0.0625, 0.0625,
		0.0625, 0.09375, 0.0625, 0.0625, 0.03125, 0.03125, 0.03125, 0.03125, 0.03125, 0.03125,
		0.0625, 0.03125, 0.0625, 0.03125, 0.03125, 0.03125, 0.03125, 0.03125, 0.03125, 0.03125,
		0.03125, 0.03125, 0.03125, 0.03125, 0, 0, 0, 0, 0, 0,
		0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
		0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
		0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
		0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
		0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
		0, 0, 0, 0, 0, 0, 0, 0, 0, 0}
	ones := make([]float64, 100)
	for i := range ones {
		ones[i] = 1
	}
	cases := []struct {
		name            string
		sc              Scenario
		perSlot, detect []float64
		overall         float64
	}{
		{
			name: "OO-advanced",
			sc: Scenario{Chain: c, Strategy: oo, NumChaffs: 1, Horizon: 100,
				Advanced: true, Gamma: uncapped(oo.Gamma)},
			perSlot: ones, detect: ones, overall: 1,
		},
		{
			name:    "OO-basic",
			sc:      Scenario{Chain: c, Strategy: oo, NumChaffs: 1, Horizon: 100},
			perSlot: ooSeries, detect: ooSeries, overall: 0.0215625,
		},
		{
			name: "ROO-advanced-OO-gamma",
			sc: Scenario{Chain: c, Strategy: chaff.NewROO(c), NumChaffs: 2, Horizon: 100,
				Advanced: true, Gamma: uncapped(oo.Gamma)},
			perSlot: ooSeries, detect: ooSeries, overall: 0.0215625,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(context.Background(), tc.sc, engine.Options{Runs: 32, Seed: 2017, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			assertExact(t, "PerSlot", res.PerSlot, tc.perSlot)
			assertExact(t, "Detection", res.Detection, tc.detect)
			if res.Overall != tc.overall {
				t.Fatalf("Overall = %v, want %v", res.Overall, tc.overall)
			}
		})
	}
}

func assertExact(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s[%d] = %v, want %v", name, i, got[i], want[i])
		}
	}
}

// TestOOPlansMatchPinnedDigest pins every bit of 64 OO plans and 64 ROO
// chaffs: Γ(user) and Γ(Γ(user)) for 32 sampled users (the pair the
// advanced eavesdropper computes per run against OO), and two ROO
// chaffs per user, which exercise the exclusion path.
func TestOOPlansMatchPinnedDigest(t *testing.T) {
	c := ooPinChain(t)
	oo, roo := chaff.NewOO(c), chaff.NewROO(c)
	h := fnv.New64a()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	traj := func(tr markov.Trajectory) {
		for _, x := range tr {
			h.Write([]byte{byte(x)})
		}
	}
	r := rng.New(2017)
	strictPlans, intersections := 0, 0
	for run := 0; run < 32; run++ {
		user, err := c.Sample(r, 100)
		if err != nil {
			t.Fatal(err)
		}
		in := user
		for pass := 0; pass < 2; pass++ {
			res, err := oo.Plan(in)
			if err != nil {
				t.Fatal(err)
			}
			traj(res.Chaff)
			word(uint64(res.Intersections))
			if res.Strict {
				strictPlans++
				word(1)
			} else {
				word(0)
			}
			word(math.Float64bits(res.ChaffCost))
			word(math.Float64bits(res.UserCost))
			intersections += res.Intersections
			in = res.Chaff
		}
		chaffs, err := roo.GenerateChaffs(r, user, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, ch := range chaffs {
			traj(ch)
		}
	}
	if strictPlans != 64 || intersections != 1217 {
		t.Fatalf("%d strict plans with %d intersections, want 64 and 1217", strictPlans, intersections)
	}
	if got, want := h.Sum64(), uint64(0x3b303f72b206d340); got != want {
		t.Fatalf("OO/ROO plan digest %#x, want %#x", got, want)
	}
}
