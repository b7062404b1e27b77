package scenario

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestKindsRegistered(t *testing.T) {
	want := []string{"hetero", "mecbatch", "mixed", "multiuser", "single", "trace"}
	if got := Kinds(); !reflect.DeepEqual(got, want) {
		t.Fatalf("kinds = %v, want %v", got, want)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Spec{}); err == nil {
		t.Fatal("empty kind accepted")
	}
	if _, err := Run(Spec{Kind: "nope"}); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, err := Run(Spec{Kind: "single", Runs: 1, Horizon: 5}); err == nil {
		t.Fatal("single without strategy accepted")
	}
	if _, err := Run(Spec{Kind: "mixed", Runs: 1, Horizon: 5}); err == nil {
		t.Fatal("mixed without strategies accepted")
	}
	if _, err := Run(Spec{Kind: "single", Strategy: "MO", Model: "nope", Runs: 1, Horizon: 5}); err == nil {
		t.Fatal("unknown model accepted")
	}
	if _, err := Run(Spec{Kind: "multiuser", Advanced: true, Runs: 1, Horizon: 5}); err == nil {
		t.Fatal("advanced eavesdropper without strategy accepted")
	}
}

// TestAdvancedWithoutGammaIsBasic: against a strategy with no Γ (IM,
// Rollout) the strategy-aware eavesdropper is the basic ML detector
// (Section VI-A.1), so an advanced spec of every kind that takes one
// emits the series of the same spec without "advanced", bit for bit.
func TestAdvancedWithoutGammaIsBasic(t *testing.T) {
	specs := map[string]Spec{
		"single IM":      {Kind: "single", Strategy: "IM", NumChaffs: 2, Runs: 40, Horizon: 20, Seed: 3},
		"single Rollout": {Kind: "single", Strategy: "Rollout", Runs: 8, Horizon: 10, Seed: 3},
		"multiuser IM":   {Kind: "multiuser", Strategy: "IM", OtherUsers: 2, Runs: 40, Horizon: 20, Seed: 3},
	}
	if !testing.Short() {
		specs["trace IM"] = Spec{Kind: "trace", Strategy: "IM", NumChaffs: 2, Nodes: 40, Horizon: 25, Runs: 24, Seed: 6}
	}
	for name, sp := range specs {
		series := func(advanced bool) string {
			sp.Advanced = advanced
			rep, err := RunJob(context.Background(), Job{Spec: sp})
			if err != nil {
				t.Fatalf("%s, advanced=%v: %v", name, advanced, err)
			}
			blob, err := json.Marshal(rep.Series)
			if err != nil {
				t.Fatal(err)
			}
			return string(blob)
		}
		if adv, basic := series(true), series(false); adv != basic {
			t.Errorf("%s: advanced series\n%s\nwant the basic detector's\n%s", name, adv, basic)
		}
	}
}

func TestSingleMatchesPaperBehavior(t *testing.T) {
	// MO against the basic eavesdropper decays toward zero (Fig. 5).
	res, err := Run(Spec{Kind: "single", Strategy: "MO", Runs: 80, Horizon: 60, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs != 80 || len(res.PerSlot) != 60 {
		t.Fatalf("shape: %d runs, %d slots", res.Runs, len(res.PerSlot))
	}
	if res.PerSlot[59] > 0.05 {
		t.Fatalf("MO tail accuracy %v, want near zero", res.PerSlot[59])
	}
	// The advanced eavesdropper defeats deterministic MO (Section VI-A).
	adv, err := Run(Spec{Kind: "single", Strategy: "MO", Advanced: true, Runs: 40, Horizon: 30, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if adv.Overall < 0.99 {
		t.Fatalf("advanced vs MO overall %v, want ≈ 1", adv.Overall)
	}
}

func TestGridModelScales(t *testing.T) {
	res, err := Run(Spec{Kind: "single", Model: "grid", GridW: 12, GridH: 12,
		Strategy: "IM", Runs: 20, Horizon: 20, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Overall <= 0 || res.Overall > 1 {
		t.Fatalf("overall %v out of range", res.Overall)
	}
}

func TestMixedPopulationCoversUser(t *testing.T) {
	single, err := Run(Spec{Kind: "single", Strategy: "IM", Runs: 100, Horizon: 40, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := Run(Spec{Kind: "mixed", Strategies: []string{"IM", "MO", "RMO"},
		Runs: 100, Horizon: 40, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(mixed.PerSlot) != 40 || mixed.Runs != 100 {
		t.Fatalf("shape: %d slots, %d runs", len(mixed.PerSlot), mixed.Runs)
	}
	// Three cooperating strategies must not track worse than a lone IM
	// chaff: the MO member alone drives accuracy down.
	if mixed.Overall >= single.Overall {
		t.Fatalf("mixed population overall %v not below single-IM %v", mixed.Overall, single.Overall)
	}
}

func TestMultiuserAdvancedFromConfig(t *testing.T) {
	res, err := Run(Spec{Kind: "multiuser", Model: "spatially-skewed", OtherUsers: 3,
		Strategy: "MO", Advanced: true, Runs: 60, Horizon: 30, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Overall <= 0 || res.Overall > 1 {
		t.Fatalf("overall %v out of range", res.Overall)
	}
}

func TestLoadAppliesDefaultsAndRejectsTypos(t *testing.T) {
	specs, err := Load(strings.NewReader(`{
		"defaults": {"runs": 50, "horizon": 25, "seed": 9, "workers": 2},
		"scenarios": [
			{"kind": "single", "strategy": "MO"},
			{"kind": "multiuser", "other_users": 2, "runs": 7}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 {
		t.Fatalf("%d specs", len(specs))
	}
	if specs[0].Runs != 50 || specs[0].Horizon != 25 || specs[0].Seed != 9 || specs[0].Workers != 2 {
		t.Fatalf("defaults not applied: %+v", specs[0])
	}
	if specs[1].Runs != 7 {
		t.Fatalf("explicit runs overridden: %+v", specs[1])
	}
	// An explicit zero must win over a non-zero file default: seed 0 is a
	// valid experiment seed.
	zero, err := Load(strings.NewReader(`{
		"defaults": {"seed": 6, "workers": 2},
		"scenarios": [{"kind": "single", "strategy": "MO", "seed": 0}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if zero[0].Seed != 0 {
		t.Fatalf("explicit seed 0 overridden by default: %+v", zero[0])
	}
	if zero[0].Workers != 2 {
		t.Fatalf("absent workers did not take the default: %+v", zero[0])
	}
	if _, err := Load(strings.NewReader(`{"scenarios":[{"kind":"single","strattegy":"MO"}]}`)); err == nil {
		t.Fatal("config typo accepted")
	}
	if _, err := Load(strings.NewReader(`{"scenarios":[]}`)); err == nil {
		t.Fatal("empty scenario list accepted")
	}
}

func TestRunFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "scenarios.json")
	cfg := `{
		"defaults": {"runs": 30, "horizon": 20, "seed": 4},
		"scenarios": [
			{"name": "mu-adv", "kind": "multiuser", "model": "spatially-skewed",
			 "other_users": 2, "strategy": "MO", "advanced": true},
			{"name": "mixed-pop", "kind": "mixed", "strategies": ["IM", "MO"]}
		]
	}`
	if err := os.WriteFile(path, []byte(cfg), 0o644); err != nil {
		t.Fatal(err)
	}
	results, err := RunFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("%d results", len(results))
	}
	if results[0].Name != "mu-adv" || results[1].Name != "mixed-pop" {
		t.Fatalf("names: %q, %q", results[0].Name, results[1].Name)
	}
	for _, r := range results {
		if len(r.PerSlot) != 20 || r.Runs != 30 {
			t.Fatalf("%s: shape %d slots, %d runs", r.Name, len(r.PerSlot), r.Runs)
		}
	}
}
