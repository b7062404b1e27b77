package scenario

import (
	"strings"
	"testing"
)

func TestHeteroPopulation(t *testing.T) {
	// A target among a heterogeneous population: protected others add
	// cover, so the target is tracked no better than when coexisting with
	// the same users unprotected.
	base := Spec{Kind: "multiuser", Model: "spatially-skewed", OtherUsers: 3,
		Runs: 120, Horizon: 30, Seed: 7}
	plain, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	prot, err := Run(Spec{Kind: "hetero", Model: "spatially-skewed",
		Population: []Member{
			{Strategy: "MO", NumChaffs: 2, Count: 2},
			{Count: 1},
		},
		Runs: 120, Horizon: 30, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if prot.Runs != 120 || len(prot.PerSlot) != 30 {
		t.Fatalf("shape: %d runs, %d slots", prot.Runs, len(prot.PerSlot))
	}
	if prot.Overall > plain.Overall+0.05 {
		t.Fatalf("hetero population overall %v above unprotected-others %v", prot.Overall, plain.Overall)
	}

	if _, err := Run(Spec{Kind: "hetero", Runs: 1, Horizon: 5}); err == nil {
		t.Fatal("hetero without population accepted")
	}
	if _, err := Run(Spec{Kind: "hetero", Population: []Member{{Strategy: "nope"}}, Runs: 1, Horizon: 5}); err == nil {
		t.Fatal("unknown member strategy accepted")
	}
	if _, err := Run(Spec{Kind: "hetero", Model: "grid", GridW: 3, GridH: 3,
		Population: []Member{{Model: "non-skewed"}}, Runs: 1, Horizon: 5}); err == nil {
		t.Fatal("mismatched member cell space accepted")
	}
}

func TestTraceKind(t *testing.T) {
	if testing.Short() {
		t.Skip("trace lab build")
	}
	sp := Spec{Kind: "trace", Nodes: 40, Horizon: 25, TraceUser: 0,
		Strategy: "OO", NumChaffs: 1, Runs: 8, Seed: 6}
	res, err := Run(sp)
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs != 8 || len(res.PerSlot) != 25 {
		t.Fatalf("shape: %d runs, %d slots", res.Runs, len(res.PerSlot))
	}
	if res.Overall < 0 || res.Overall > 1 {
		t.Fatalf("overall %v out of range", res.Overall)
	}
	// The chaff must lower the top user's accuracy against the chaff-free
	// baseline of the same fleet.
	baseline, err := Run(Spec{Kind: "trace", Nodes: 40, Horizon: 25, TraceUser: 0,
		Runs: 1, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if res.Overall > baseline.Overall+1e-9 {
		t.Fatalf("OO chaff raised accuracy: %v vs baseline %v", res.Overall, baseline.Overall)
	}

	if _, err := Run(Spec{Kind: "trace", Advanced: true, Runs: 1, Horizon: 20}); err == nil {
		t.Fatal("advanced trace eavesdropper without strategy accepted")
	}
	if _, err := Run(Spec{Kind: "trace", TraceUser: -1, Runs: 1, Horizon: 20}); err == nil {
		t.Fatal("negative trace user accepted")
	}
	if _, err := Run(Spec{Kind: "trace", Nodes: 40, Horizon: 25, TraceUser: 40, Runs: 1, Seed: 6}); err == nil {
		t.Fatal("trace user beyond the fleet accepted")
	}
}

func TestMecbatchKind(t *testing.T) {
	res, err := Run(Spec{Kind: "mecbatch", Model: "grid", GridW: 4, GridH: 4,
		Strategy: "MO", NumChaffs: 2, Horizon: 20, Runs: 30, Seed: 5,
		MigrationFailProb: 0.1, Threshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs != 30 || len(res.PerSlot) != 20 {
		t.Fatalf("shape: %d runs, %d slots", res.Runs, len(res.PerSlot))
	}

	// The raw report additionally carries the cost curves.
	rep, err := RunJob(nil, Job{Spec: Spec{Kind: "mecbatch", Model: "grid", GridW: 4, GridH: 4,
		Strategy: "MO", NumChaffs: 2, Horizon: 20, Runs: 30, Seed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{ScalarOverall, ScalarMigrationCost, ScalarChaffCost,
		ScalarCommCost, ScalarMigrations, ScalarFailedMigrations, ScalarQoSViolations} {
		sc, err := rep.ScalarStats(name)
		if err != nil {
			t.Fatal(err)
		}
		if sc.N() != 30 {
			t.Fatalf("scalar %q aggregated %d episodes", name, sc.N())
		}
	}
	if chaffCost, _ := rep.ScalarStats(ScalarChaffCost); chaffCost.Mean() <= 0 {
		t.Fatal("chaff cost curve empty")
	}

	if _, err := Run(Spec{Kind: "mecbatch", Runs: 1, Horizon: 5}); err == nil {
		t.Fatal("mecbatch without strategy accepted")
	}
	if _, err := Run(Spec{Kind: "mecbatch", Strategy: "OO", Model: "grid", Runs: 1, Horizon: 5}); err == nil {
		t.Fatal("offline-only controller accepted")
	}
	_, err = Run(Spec{Kind: "mecbatch", Strategy: "MO", Model: "non-skewed", Threshold: 2, Runs: 1, Horizon: 5})
	if err == nil || !strings.Contains(err.Error(), "threshold") {
		t.Fatalf("threshold without grid accepted: %v", err)
	}
}
