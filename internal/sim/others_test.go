package sim

import (
	"context"
	"math"
	"reflect"
	"testing"

	"chaffmec/internal/chaff"
	"chaffmec/internal/detect"
	"chaffmec/internal/engine"
	"chaffmec/internal/markov"
	"chaffmec/internal/mobility"
	"chaffmec/internal/rng"
)

// The tests below cover a target among coexisting users, the multi-user
// setting of the paper's remarks in Sections II-A and III.

func TestCoexistingUsersProvideCover(t *testing.T) {
	// More coexisting statistically-identical users behave like IM
	// chaffs: the target's tracking accuracy decreases toward Σπ².
	c := seededChain(t, mobility.ModelSpatiallySkewed, 1)
	prev := 1.1
	for _, others := range []int{0, 3, 9} {
		sc := Scenario{Chain: c, Horizon: 50, Others: crowd(c, others)}
		res, err := Run(context.Background(), sc, engine.Options{Runs: 400, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if res.Overall >= prev {
			t.Fatalf("accuracy with %d others = %v, not below %v", others, res.Overall, prev)
		}
		prev = res.Overall
	}
}

func TestCrowdRegressesTowardCollisionLimit(t *testing.T) {
	// A nuance of the paper's "coexisting users offer additional
	// protection" remark (Section II-A), measured here: extra users lower
	// the eavesdropper's *detection* accuracy, but their effect on
	// *tracking* accuracy is to pull it toward the collision limit Σπ²
	// (Eq. 11's N→∞ value) — once a good chaff strategy already beats
	// Σπ², a crowd of statistically identical users REGRESSES the
	// protection toward Σπ², because wrongly detected co-located users
	// still track the target. See EXPERIMENTS.md.
	c := seededChain(t, mobility.ModelBothSkewed, 2)
	coll, err := c.CollisionProbability()
	if err != nil {
		t.Fatal(err)
	}
	mo := chaff.NewMO(c)
	alone, err := Run(context.Background(), Scenario{
		Chain: c, Horizon: 50, Strategy: mo, NumChaffs: 1,
	}, engine.Options{Runs: 300, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	crowded, err := Run(context.Background(), Scenario{
		Chain: c, Horizon: 50, Strategy: mo, NumChaffs: 1, Others: crowd(c, 8),
	}, engine.Options{Runs: 300, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if alone.Overall >= coll {
		t.Skipf("MO alone (%v) did not beat the collision limit (%v); regression effect untestable", alone.Overall, coll)
	}
	if crowded.Overall <= alone.Overall {
		t.Fatalf("expected the crowd to pull accuracy up toward Σπ²=%v: alone %v, crowded %v",
			coll, alone.Overall, crowded.Overall)
	}
	if crowded.Overall > coll+0.08 {
		t.Fatalf("crowded accuracy %v far above the collision limit %v", crowded.Overall, coll)
	}
}

func TestHeterogeneousOtherUsers(t *testing.T) {
	// Coexisting users with different mobility models still provide some
	// cover, just less than statistically identical ones.
	target := seededChain(t, mobility.ModelSpatiallySkewed, 1)
	other := seededChain(t, mobility.ModelNonSkewed, 5)
	none, err := Run(context.Background(), Scenario{Chain: target, Horizon: 50}, engine.Options{Runs: 300, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	hetero, err := Run(context.Background(), Scenario{Chain: target, Horizon: 50, Others: crowd(other, 9)},
		engine.Options{Runs: 300, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if hetero.Overall >= none.Overall {
		t.Fatalf("heterogeneous cover inert: %v vs %v alone", hetero.Overall, none.Overall)
	}
}

// TestProtectedOtherUsers exercises the heterogeneous-population path:
// coexisting users running their own chaff strategies add strictly more
// cover than the same users unprotected.
func TestProtectedOtherUsers(t *testing.T) {
	c := seededChain(t, mobility.ModelSpatiallySkewed, 1)
	base := Scenario{Chain: c, Horizon: 40, Others: crowd(c, 3)}
	plain, err := Run(context.Background(), base, engine.Options{Runs: 300, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	protected := base
	protected.Others = []Other{{Chain: c, Strategy: chaff.NewMO(c), NumChaffs: 2}, {Chain: c}, {Chain: c, Strategy: chaff.NewIM(c), NumChaffs: 1}}
	prot, err := Run(context.Background(), protected, engine.Options{Runs: 300, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if prot.Overall >= plain.Overall {
		t.Fatalf("other users' chaffs inert: %v with, %v without", prot.Overall, plain.Overall)
	}
}

// TestRunMatchesPinnedValues pins a small fixed scenario's output. The
// values guard the current streams against accidental drift; they have
// been re-recorded twice, each time for a deliberate stream change: once
// when the multi-user harness moved onto internal/engine (replacing the
// weak xor+multiply per-run seed mixing with the MixSeed avalanche), and
// once when the repository moved onto the internal/rng substrate
// (splitmix64 per-worker sources replacing math/rand's lagged-Fibonacci
// source, and alias-table trajectory sampling replacing the linear
// scan). See the internal/rng package doc for the stream-stability
// contract governing future changes.
func TestRunMatchesPinnedValues(t *testing.T) {
	c := seededChain(t, mobility.ModelSpatiallySkewed, 1)
	sc := Scenario{Chain: c, Others: crowd(c, 2), Horizon: 8,
		Strategy: chaff.NewMO(c), NumChaffs: 1}
	res, err := Run(context.Background(), sc, engine.Options{Runs: 32, Seed: 12345, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	wantPerSlot := []float64{0.28124999999999994, 0.21875000000000006, 0.25,
		0.125, 0.1875, 0.125, 0.03125, 0.0625}
	wantStdErr := []float64{0.08075219711382271, 0.07424858801742054, 0.0777713771047819,
		0.05939887041393643, 0.07010217197868432, 0.059398870413936426, 0.031249999999999997, 0.04347552147751577}
	const wantOverall = 0.16015625
	const tol = 1e-12
	for i := range wantPerSlot {
		if math.Abs(res.PerSlot[i]-wantPerSlot[i]) > tol {
			t.Fatalf("PerSlot[%d] = %v, want %v", i, res.PerSlot[i], wantPerSlot[i])
		}
		if math.Abs(res.PerSlotStdErr[i]-wantStdErr[i]) > tol {
			t.Fatalf("PerSlotStdErr[%d] = %v, want %v", i, res.PerSlotStdErr[i], wantStdErr[i])
		}
	}
	if math.Abs(res.Overall-wantOverall) > tol {
		t.Fatalf("Overall = %v, want %v", res.Overall, wantOverall)
	}
}

// TestRunUsesEngineSeedDerivation re-derives one run's stream by hand and
// checks the harness produces exactly the result that stream yields: the
// weak per-package mixing is gone, runs draw from rng.Derive.
func TestRunUsesEngineSeedDerivation(t *testing.T) {
	c := seededChain(t, mobility.ModelNonSkewed, 1)
	sc := Scenario{Chain: c, Others: crowd(c, 2), Horizon: 10}
	res, err := Run(context.Background(), sc, engine.Options{Runs: 1, Seed: 77, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Replay run 0 with the engine's stream derivation, in the harness's
	// sampling order: target first, then the coexisting users.
	r := rng.NewRun(77, 0)
	var trs []markov.Trajectory
	for i := 0; i < 3; i++ {
		tr, err := c.Sample(r, 10)
		if err != nil {
			t.Fatal(err)
		}
		trs = append(trs, tr)
	}
	dets, err := detect.NewMLDetector(c).PrefixDetections(trs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := detect.TrackingAccuracySeries(dets, trs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.PerSlot, want) {
		t.Fatalf("single-run result %v does not match rng.NewRun replay %v", res.PerSlot, want)
	}
}

// TestAdvancedEavesdropper exercises the strategy-aware eavesdropper
// among coexisting users: against a deterministic MO chaff it must do at
// least as well as the basic detector (it filters out the recognizable
// chaff).
func TestAdvancedEavesdropper(t *testing.T) {
	c := seededChain(t, mobility.ModelNonSkewed, 1)
	mo := chaff.NewMO(c)
	base := Scenario{Chain: c, Others: crowd(c, 2), Strategy: mo, NumChaffs: 1, Horizon: 30}
	basic, err := Run(context.Background(), base, engine.Options{Runs: 150, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	adv := base
	adv.Advanced, adv.Gamma = true, uncapped(mo.Gamma)
	aware, err := Run(context.Background(), adv, engine.Options{Runs: 150, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if aware.Overall < basic.Overall-1e-9 {
		t.Fatalf("advanced eavesdropper (%v) below basic (%v) against deterministic MO",
			aware.Overall, basic.Overall)
	}
}
