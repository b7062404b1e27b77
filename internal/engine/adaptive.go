package engine

import (
	"fmt"
	"math"
)

// Target is a precision goal for adaptive Monte-Carlo execution: keep
// adding runs — in rounds of explicit-range Shards — until the standard
// error of a tracked aggregate drops to SE, subject to MinRuns/MaxRuns
// bounds. The engine owns the scheduling policy (Done, NextEnd); which
// aggregate the SE is measured on is resolved by the layers that know
// the names (report.Report.TargetSE for the named series/scalar of an
// envelope).
//
// The schedule is a pure function of the covered run count and its
// observed SE, both of which are bitwise deterministic for a given
// experiment — so a re-run that continues an interrupted adaptive job
// from its journaled rounds executes exactly the rounds the
// uninterrupted job would have.
type Target struct {
	// Series names the report series whose WORST per-slot standard error
	// the target bounds; Scalar instead names a scalar aggregate. At most
	// one is set; both empty defaults to the canonical tracking series at
	// the scenario layer.
	Series string `json:"series,omitempty"`
	Scalar string `json:"scalar,omitempty"`
	// SE is the standard-error goal; a target with SE <= 0 is disabled.
	SE float64 `json:"target_se"`
	// MinRuns is the floor before the goal may stop the experiment (an SE
	// estimated from very few runs is itself too noisy to trust); MaxRuns
	// caps the run count when the goal turns out unattainable.
	MinRuns int `json:"min_runs,omitempty"`
	MaxRuns int `json:"max_runs,omitempty"`
}

// Enabled reports whether the target requests adaptive stopping.
func (t Target) Enabled() bool { return t.SE > 0 }

// Normalized resolves the bounds: MaxRuns defaults to defaultMax,
// MinRuns to min(32, MaxRuns) and never below 2 (a standard error needs
// two samples), and MinRuns is clamped to MaxRuns.
func (t Target) Normalized(defaultMax int) Target {
	if t.MaxRuns <= 0 {
		t.MaxRuns = defaultMax
	}
	if t.MinRuns <= 0 {
		t.MinRuns = 32
	}
	if t.MinRuns < 2 {
		t.MinRuns = 2
	}
	if t.MinRuns > t.MaxRuns {
		t.MinRuns = t.MaxRuns
	}
	return t
}

// Validate rejects malformed (normalized) targets.
func (t Target) Validate() error {
	if !t.Enabled() {
		return fmt.Errorf("engine: target needs a standard-error goal > 0, got %v", t.SE)
	}
	if t.Series != "" && t.Scalar != "" {
		return fmt.Errorf("engine: target names both series %q and scalar %q", t.Series, t.Scalar)
	}
	if t.MaxRuns < 1 || t.MinRuns < 1 || t.MinRuns > t.MaxRuns {
		return fmt.Errorf("engine: target bounds min %d / max %d invalid", t.MinRuns, t.MaxRuns)
	}
	return nil
}

// Met reports whether n covered runs with observed standard error se
// satisfy the goal (the MinRuns floor included).
func (t Target) Met(n int, se float64) bool {
	return n >= t.MinRuns && se <= t.SE && !math.IsNaN(se)
}

// Done reports whether adaptive execution stops at n covered runs with
// observed standard error se: the goal is met, or MaxRuns is exhausted.
func (t Target) Done(n int, se float64) bool {
	return n >= t.MaxRuns || t.Met(n, se)
}

// NextEnd schedules the next round: the run count to extend coverage to,
// given n covered runs with observed standard error se. The projection
// uses SE ∝ 1/√n (need ≈ n·(se/goal)²), clamped to geometric growth —
// at least 1.5×, at most 2× per round, so a noisy early SE estimate
// neither stalls nor overshoots the schedule — and capped at MaxRuns.
// Pure function of (n, se): resumed schedules replay identically.
func (t Target) NextEnd(n int, se float64) int {
	if n <= 0 {
		return t.MinRuns
	}
	need := t.MaxRuns
	if se > 0 && !math.IsNaN(se) && !math.IsInf(se, 0) {
		if p := float64(n) * (se / t.SE) * (se / t.SE); p < float64(need) {
			need = int(math.Ceil(p))
		}
	}
	if lo := n + (n+1)/2; need < lo {
		need = lo
	}
	if hi := 2 * n; need > hi {
		need = hi
	}
	if need > t.MaxRuns {
		need = t.MaxRuns
	}
	if need <= n {
		need = n + 1
		if need > t.MaxRuns {
			need = t.MaxRuns
		}
	}
	return need
}
