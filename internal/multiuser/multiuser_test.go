package multiuser

import (
	"context"
	"reflect"
	"testing"

	"chaffmec/internal/chaff"
	"chaffmec/internal/engine"
	"chaffmec/internal/markov"
	"chaffmec/internal/mobility"
	"chaffmec/internal/rng"
)

func modelChain(t *testing.T, id mobility.ModelID, seed int64) *markov.Chain {
	t.Helper()
	c, err := mobility.Build(id, rng.New(seed), 10)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestValidation(t *testing.T) {
	c := modelChain(t, mobility.ModelNonSkewed, 1)
	small := modelChain5(t)
	bad := []Config{
		{},
		{TargetChain: c},
		{TargetChain: c, Horizon: 10, Strategy: chaff.NewIM(c)},
		{TargetChain: c, Horizon: 10, OtherChains: []*markov.Chain{nil}},
		{TargetChain: c, Horizon: 10, OtherChains: []*markov.Chain{small}},
	}
	for i, cfg := range bad {
		if _, err := Run(context.Background(), cfg, engine.Options{Runs: 1}); err == nil {
			t.Fatalf("config %d accepted", i)
		}
	}
}

func modelChain5(t *testing.T) *markov.Chain {
	t.Helper()
	c, err := mobility.RandomChain(rng.New(9), 5)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCoexistingUsersProvideCover(t *testing.T) {
	// More coexisting statistically-identical users behave like IM
	// chaffs: the target's tracking accuracy decreases toward Σπ².
	c := modelChain(t, mobility.ModelSpatiallySkewed, 1)
	prev := 1.1
	for _, others := range []int{0, 3, 9} {
		cfg := Config{TargetChain: c, Horizon: 50}
		for i := 0; i < others; i++ {
			cfg.OtherChains = append(cfg.OtherChains, c)
		}
		res, err := Run(context.Background(), cfg, engine.Options{Runs: 400, Seed: 7})
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
	c := modelChain(t, mobility.ModelBothSkewed, 2)
	coll, err := c.CollisionProbability()
	if err != nil {
		t.Fatal(err)
	}
	mo := chaff.NewMO(c)
	alone, err := Run(context.Background(), Config{
		TargetChain: c, Horizon: 50, Strategy: mo, NumChaffs: 1,
	}, engine.Options{Runs: 300, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	crowd := Config{TargetChain: c, Horizon: 50, Strategy: mo, NumChaffs: 1}
	for i := 0; i < 8; i++ {
		crowd.OtherChains = append(crowd.OtherChains, c)
	}
	crowded, err := Run(context.Background(), crowd, engine.Options{Runs: 300, Seed: 3})
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
	target := modelChain(t, mobility.ModelSpatiallySkewed, 1)
	other := modelChain(t, mobility.ModelNonSkewed, 5)
	none, err := Run(context.Background(), Config{TargetChain: target, Horizon: 50}, engine.Options{Runs: 300, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{TargetChain: target, Horizon: 50}
	for i := 0; i < 9; i++ {
		cfg.OtherChains = append(cfg.OtherChains, other)
	}
	hetero, err := Run(context.Background(), cfg, engine.Options{Runs: 300, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if hetero.Overall >= none.Overall {
		t.Fatalf("heterogeneous cover inert: %v vs %v alone", hetero.Overall, none.Overall)
	}
}

func TestDeterministicAcrossWorkers(t *testing.T) {
	c := modelChain(t, mobility.ModelNonSkewed, 1)
	cfg := Config{TargetChain: c, Horizon: 20, OtherChains: []*markov.Chain{c, c}}
	a, err := Run(context.Background(), cfg, engine.Options{Runs: 60, Seed: 5, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), cfg, engine.Options{Runs: 60, Seed: 5, Workers: 16})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.PerSlot {
		if a.PerSlot[i] != b.PerSlot[i] {
			t.Fatal("result depends on worker count")
		}
	}
}

// TestProtectedOtherUsers exercises the heterogeneous-population path:
// coexisting users running their own chaff strategies add strictly more
// cover than the same users unprotected.
func TestProtectedOtherUsers(t *testing.T) {
	c := modelChain(t, mobility.ModelSpatiallySkewed, 1)
	base := Config{TargetChain: c, Horizon: 40, OtherChains: []*markov.Chain{c, c, c}}
	plain, err := Run(context.Background(), base, engine.Options{Runs: 300, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	protected := base
	protected.OtherStrategies = []chaff.Strategy{chaff.NewMO(c), nil, chaff.NewIM(c)}
	protected.OtherNumChaffs = []int{2, 0, 1}
	prot, err := Run(context.Background(), protected, engine.Options{Runs: 300, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if prot.Overall >= plain.Overall {
		t.Fatalf("other users' chaffs inert: %v with, %v without", prot.Overall, plain.Overall)
	}

	// Misaligned population slices are rejected.
	bad := base
	bad.OtherStrategies = []chaff.Strategy{chaff.NewMO(c)}
	bad.OtherNumChaffs = []int{1}
	if _, err := Run(context.Background(), bad, engine.Options{Runs: 1}); err == nil {
		t.Fatal("misaligned OtherStrategies accepted")
	}
	budget := base
	budget.OtherStrategies = []chaff.Strategy{chaff.NewMO(c), nil, nil}
	budget.OtherNumChaffs = []int{0, 0, 0}
	if _, err := Run(context.Background(), budget, engine.Options{Runs: 1}); err == nil {
		t.Fatal("zero chaff budget for a protected other user accepted")
	}
}

// TestCappedGammaMatchesPlain runs the advanced eavesdropper against OO
// with coexisting users, so each Γ's co-location cap is a max over many
// candidates: the capped Γ must give the plain Γ's result bit for bit.
// The cases cover other users unprotected, protected by OO themselves,
// and the target's replicated chaffs (which cap each other at T).
func TestCappedGammaMatchesPlain(t *testing.T) {
	c := modelChain(t, mobility.ModelSpatiallySkewed, 2017)
	oo := chaff.NewOO(c)
	others := []*markov.Chain{c, c, c}
	cases := map[string]Config{
		"unprotected others": {TargetChain: c, OtherChains: others, Strategy: oo, NumChaffs: 1, Horizon: 40},
		"OO-protected others": {TargetChain: c, OtherChains: others, Strategy: oo, NumChaffs: 1, Horizon: 40,
			OtherStrategies: []chaff.Strategy{oo, oo, oo}, OtherNumChaffs: []int{1, 1, 1}},
		"replicated chaffs": {TargetChain: c, OtherChains: others, Strategy: oo, NumChaffs: 2, Horizon: 40},
	}
	for name, cfg := range cases {
		plain, capped := cfg, cfg
		plain.Gamma = oo.Gamma
		capped.CappedGamma = oo.GammaWithin
		opts := engine.Options{Runs: 48, Seed: 17, Workers: 2}
		want, err := Run(context.Background(), plain, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Run(context.Background(), capped, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: capped Γ result %+v, plain Γ %+v", name, got, want)
		}
	}
}
