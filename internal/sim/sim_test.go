package sim

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"testing"

	"chaffmec/internal/analysis"
	"chaffmec/internal/chaff"
	"chaffmec/internal/detect"
	"chaffmec/internal/engine"
	"chaffmec/internal/markov"
	"chaffmec/internal/mobility"
	"chaffmec/internal/rng"
)

func modelChain(t *testing.T, id mobility.ModelID) *markov.Chain {
	t.Helper()
	return seededChain(t, id, 99)
}

func seededChain(t *testing.T, id mobility.ModelID, seed int64) *markov.Chain {
	t.Helper()
	c, err := mobility.Build(id, rng.New(seed), 10)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// uncapped is g taking the co-location cap it ignores.
func uncapped(g detect.GammaFunc) detect.CappedGammaFunc {
	return func(user markov.Trajectory, _ int) (markov.Trajectory, error) { return g(user) }
}

// crowd is n unprotected users coexisting with the target, all on c.
func crowd(c *markov.Chain, n int) []Other {
	others := make([]Other, n)
	for i := range others {
		others[i].Chain = c
	}
	return others
}

func TestRunValidation(t *testing.T) {
	c := modelChain(t, mobility.ModelNonSkewed)
	small, err := mobility.RandomChain(rng.New(9), 5)
	if err != nil {
		t.Fatal(err)
	}
	mo := chaff.NewMO(c)
	bad := map[string][]Scenario{
		"target": {
			{},
			{Chain: c},
			{Chain: c, Strategy: chaff.NewIM(c)},
			{Chain: c, Strategy: chaff.NewIM(c), Horizon: 10},
			{Chain: c, Strategy: chaff.NewIM(c), NumChaffs: 1},
			{Chain: c, Horizon: 10, Advanced: true},
			{Chain: c, Horizon: 10, CollectCt: true},
		},
		"others": {
			{Chain: c, Horizon: 10, Others: []Other{{}}},
			{Chain: c, Horizon: 10, Others: crowd(small, 1)},
			{Chain: c, Horizon: 10, Others: []Other{{Chain: c, Strategy: mo}}},
		},
	}
	for group, scs := range bad {
		t.Run(group, func(t *testing.T) {
			for i, sc := range scs {
				if _, err := Run(context.Background(), sc, engine.Options{Runs: 1}); err == nil {
					t.Fatalf("scenario %d accepted", i)
				}
			}
		})
	}
}

func TestIMMatchesClosedForm(t *testing.T) {
	// Eq. 11 validation: simulated IM accuracy ≈ Σπ² + (1/N)(1−Σπ²).
	c := modelChain(t, mobility.ModelNonSkewed)
	for _, n := range []int{2, 10} {
		sc := Scenario{Chain: c, Strategy: chaff.NewIM(c), NumChaffs: n - 1, Horizon: 60}
		res, err := Run(context.Background(), sc, engine.Options{Runs: 1200, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		want, err := analysis.IMAccuracy(c, n)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Overall-want) > 0.02 {
			t.Fatalf("N=%d: simulated %v vs Eq.11 %v", n, res.Overall, want)
		}
	}
}

func TestOODrivesAccuracyDown(t *testing.T) {
	c := modelChain(t, mobility.ModelNonSkewed)
	oo := Scenario{Chain: c, Strategy: chaff.NewOO(c), NumChaffs: 1, Horizon: 100}
	im := Scenario{Chain: c, Strategy: chaff.NewIM(c), NumChaffs: 1, Horizon: 100}
	resOO, err := Run(context.Background(), oo, engine.Options{Runs: 200, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	resIM, err := Run(context.Background(), im, engine.Options{Runs: 200, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if resOO.Overall >= resIM.Overall {
		t.Fatalf("OO overall %v not below IM %v", resOO.Overall, resIM.Overall)
	}
	// Per-slot decay: the tail should be near zero on model (a).
	tail := resOO.PerSlot[90]
	for _, v := range resOO.PerSlot[90:] {
		if v > tail {
			tail = v
		}
	}
	if tail > 0.05 {
		t.Fatalf("OO tail accuracy %v, want ≤ 0.05 (Theorem V.4 regime)", tail)
	}
}

func TestMODecaysToZero(t *testing.T) {
	c := modelChain(t, mobility.ModelNonSkewed)
	sc := Scenario{Chain: c, Strategy: chaff.NewMO(c), NumChaffs: 1, Horizon: 100}
	res, err := Run(context.Background(), sc, engine.Options{Runs: 200, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	head := res.PerSlot[0]
	tail := 0.0
	for _, v := range res.PerSlot[90:] {
		tail += v
	}
	tail /= 10
	if tail > 0.05 || tail >= head {
		t.Fatalf("MO accuracy head %v tail %v, want decaying toward 0", head, tail)
	}
}

func TestMLStaysNonZero(t *testing.T) {
	// Eq. 12: P_ML = (1/T)Σπ(x₂,t) > 0 — bounded away from zero.
	c := modelChain(t, mobility.ModelSpatiallySkewed)
	sc := Scenario{Chain: c, Strategy: chaff.NewML(c), NumChaffs: 1, Horizon: 100}
	res, err := Run(context.Background(), sc, engine.Options{Runs: 300, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if res.Overall < 0.05 {
		t.Fatalf("ML overall %v, want clearly non-zero on the spatially-skewed model", res.Overall)
	}
}

func TestAdvancedDetectorBeatsDeterministicStrategies(t *testing.T) {
	c := modelChain(t, mobility.ModelNonSkewed)
	mo := chaff.NewMO(c)
	sc := Scenario{
		Chain: c, Strategy: mo, NumChaffs: 1, Horizon: 50,
		Advanced: true, Gamma: uncapped(mo.Gamma),
	}
	res, err := Run(context.Background(), sc, engine.Options{Runs: 100, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if res.Overall < 0.99 {
		t.Fatalf("advanced eavesdropper vs deterministic MO: %v, want ≈ 1", res.Overall)
	}
}

func TestRobustStrategiesResistAdvancedDetector(t *testing.T) {
	c := modelChain(t, mobility.ModelNonSkewed)
	mo := chaff.NewMO(c)
	rmo := chaff.NewRMO(c)
	sc := Scenario{
		Chain: c, Strategy: rmo, NumChaffs: 9, Horizon: 50,
		Advanced: true, Gamma: uncapped(mo.Gamma),
	}
	res, err := Run(context.Background(), sc, engine.Options{Runs: 100, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if res.Overall > 0.5 {
		t.Fatalf("RMO vs advanced eavesdropper: %v, want well below 1", res.Overall)
	}
}

// TestCappedGammaMatchesPinnedPlain reruns the OO pin scenarios of
// oo_pin_test.go (and OO with replicated chaffs) with the capped Γ the
// scenario runner wires in: every bit must match the plain Γ's result.
// The cases with other users make each Γ's co-location cap a max over
// many candidates: others unprotected, protected by OO themselves, and
// the target's replicated chaffs (which cap each other at T).
func TestCappedGammaMatchesPinnedPlain(t *testing.T) {
	c := ooPinChain(t)
	oo := chaff.NewOO(c)
	ooProtected := crowd(c, 3)
	for i := range ooProtected {
		ooProtected[i].Strategy, ooProtected[i].NumChaffs = oo, 1
	}
	for group, cases := range map[string]map[string]Scenario{
		"pinned": {
			"OO-advanced":           {Chain: c, Strategy: oo, NumChaffs: 1, Horizon: 100},
			"OO-advanced-2-chaffs":  {Chain: c, Strategy: oo, NumChaffs: 2, Horizon: 100},
			"ROO-advanced-OO-gamma": {Chain: c, Strategy: chaff.NewROO(c), NumChaffs: 2, Horizon: 100},
		},
		"others": {
			"unprotected others":  {Chain: c, Others: crowd(c, 3), Strategy: oo, NumChaffs: 1, Horizon: 40},
			"OO-protected others": {Chain: c, Others: ooProtected, Strategy: oo, NumChaffs: 1, Horizon: 40},
			"replicated chaffs":   {Chain: c, Others: crowd(c, 3), Strategy: oo, NumChaffs: 2, Horizon: 40},
		},
	} {
		t.Run(group, func(t *testing.T) {
			for name, sc := range cases {
				sc.Advanced = true
				plain, capped := sc, sc
				plain.Gamma = uncapped(oo.Gamma)
				capped.Gamma = oo.GammaWithin
				opts := engine.Options{Runs: 32, Seed: 2017, Workers: 2}
				want, err := Run(context.Background(), plain, opts)
				if err != nil {
					t.Fatal(err)
				}
				got, err := Run(context.Background(), capped, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: capped Γ result differs from the plain Γ's", name)
				}
			}
		})
	}
}

func TestCollectCt(t *testing.T) {
	c := modelChain(t, mobility.ModelNonSkewed)
	sc := Scenario{Chain: c, Strategy: chaff.NewCML(c), NumChaffs: 1, Horizon: 50, CollectCt: true}
	res, err := Run(context.Background(), sc, engine.Options{Runs: 50, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CtSamples) == 0 {
		t.Fatal("no c_t samples collected")
	}
	mean := 0.0
	for _, v := range res.CtSamples {
		mean += v
	}
	mean /= float64(len(res.CtSamples))
	if mean >= 0 {
		t.Fatalf("mean c_t = %v, want < 0 (CML keeps the likelihood race won)", mean)
	}
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	// The engine must make results bitwise independent of parallelism:
	// Workers 1, 4, 13 (an odd width), 16 and GOMAXPROCS all produce the
	// identical Result.
	c := modelChain(t, mobility.ModelBothSkewed)
	spatial := modelChain(t, mobility.ModelSpatiallySkewed)
	for name, sc := range map[string]Scenario{
		"IM-spatial":         {Chain: spatial, Strategy: chaff.NewIM(spatial), NumChaffs: 3, Horizon: 20},
		"MO-ct":              {Chain: c, Strategy: chaff.NewMO(c), NumChaffs: 2, Horizon: 15, CollectCt: true},
		"MO-among-others":    {Chain: c, Others: crowd(c, 1), Strategy: chaff.NewMO(c), NumChaffs: 1, Horizon: 12},
		"unprotected-others": {Chain: c, Others: crowd(c, 2), Horizon: 20},
		"protected-others":   {Chain: c, Others: []Other{{Chain: c, Strategy: chaff.NewIM(c), NumChaffs: 2}}, Horizon: 12},
	} {
		t.Run(name, func(t *testing.T) {
			ref, err := Run(context.Background(), sc, engine.Options{Runs: 40, Seed: 21, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{4, 13, 16, runtime.GOMAXPROCS(0)} {
				got, err := Run(context.Background(), sc, engine.Options{Runs: 40, Seed: 21, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(ref, got) {
					t.Fatalf("workers=%d: result differs from the single-worker run", workers)
				}
			}
		})
	}
}
