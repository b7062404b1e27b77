package scenario

import (
	"math"

	"chaffmec/internal/engine"
	"chaffmec/internal/report"
)

// Plan is a job's round scheduler: the one place that decides which run
// range to cover next. RunRounds follows it whoever executes the rounds
// — this process or the distributed coordinator's fleet — which is what
// makes a fleet's round boundaries (and therefore the merged Report)
// bit-identical to a single process's.
//
// A Plan is a pure function of the spec: with a precision target the
// schedule is SE-driven (engine.Target's NextEnd projection); without
// one it degenerates to a single round covering the declared Runs.
type Plan struct {
	target engine.Target
	fixed  int
}

// NewPlan resolves a spec's round schedule. The error mirrors the
// spec's precision-block validation.
func NewPlan(sp Spec) (Plan, error) {
	sp = sp.withDefaults()
	t, err := sp.target()
	if err != nil {
		return Plan{}, err
	}
	return Plan{target: t, fixed: sp.options(engine.Shard{}).Normalized().Runs}, nil
}

// Adaptive reports whether the schedule is SE-targeted (rounds keep
// extending until the target stops them) rather than fixed-count.
func (p Plan) Adaptive() bool { return p.target.Enabled() }

// Target returns the normalized precision target (zero when fixed).
func (p Plan) Target() engine.Target { return p.target }

// FixedRuns returns the declared run count of a fixed schedule (and the
// default MaxRuns of an adaptive one).
func (p Plan) FixedRuns() int { return p.fixed }

// RoundPlan is Plan.Next's verdict: the next round's run range, or
// Done, together with the standard error the decision was based on.
type RoundPlan struct {
	// Start and End delimit the next round's run range [Start, End);
	// Start equals the accumulated coverage.
	Start, End int
	// SE is the tracked standard error of the accumulated report (NaN
	// before any coverage, and always NaN for fixed schedules).
	SE float64
	// Done reports that no further round is needed.
	Done bool
}

// Next schedules the round following the accumulated report (nil: no
// coverage yet). For adaptive schedules it evaluates the tracked SE on
// acc — an acc missing the tracked series/scalar is an error.
func (p Plan) Next(acc *report.Report) (RoundPlan, error) {
	n := 0
	if acc != nil {
		n = acc.RunCount
	}
	if p.target.Enabled() {
		se := math.NaN()
		if acc != nil && n > 0 {
			var err error
			if se, err = acc.TargetSE(p.target); err != nil {
				return RoundPlan{}, err
			}
		}
		if n > 0 && p.target.Done(n, se) {
			return RoundPlan{Start: n, End: n, SE: se, Done: true}, nil
		}
		return RoundPlan{Start: n, End: p.target.NextEnd(n, se), SE: se}, nil
	}
	if n >= p.fixed {
		return RoundPlan{Start: n, End: n, SE: math.NaN(), Done: true}, nil
	}
	return RoundPlan{Start: n, End: p.fixed, SE: math.NaN()}, nil
}

// Stamp fixes a round report's TotalRuns: adaptive rounds cannot know
// the final run count, so successive partials declare the MaxRuns cap
// until Finalize re-stamps the accumulated report. Fixed-schedule
// rounds already declare the right count and pass through unchanged.
func (p Plan) Stamp(rep *report.Report) {
	if p.target.Enabled() {
		rep.TotalRuns = p.target.MaxRuns
	}
}

// Finalize re-stamps the finished accumulated report's TotalRuns — the
// adaptively chosen count (its coverage), or the declared fixed count.
func (p Plan) Finalize(acc *report.Report) {
	if acc == nil {
		return
	}
	if p.target.Enabled() {
		acc.TotalRuns = acc.RunCount
	} else {
		acc.TotalRuns = p.fixed
	}
}

// SplitSpan plans the shards of one round: it splits the half-open run
// range [start, end) into at most parts contiguous non-empty spans of
// near-equal size (the same balanced arithmetic as engine.Shard's
// Index/Count split, so sizes differ by at most one run). Fewer than
// parts spans come back when the range is shorter than parts. This is
// the coordinator's shard planner; any contiguous decomposition merges
// bit-identically, so the choice of parts only affects load balance.
func SplitSpan(start, end, parts int) []engine.Shard {
	n := end - start
	if n <= 0 {
		return nil
	}
	if parts < 1 {
		parts = 1
	}
	if parts > n {
		parts = n
	}
	out := make([]engine.Shard, 0, parts)
	for i := 0; i < parts; i++ {
		a := start + i*n/parts
		b := start + (i+1)*n/parts
		out = append(out, engine.Span(a, b))
	}
	return out
}

// SplitSpanWeighted plans one round's shards for a heterogeneous
// fleet: it splits the half-open run range [start, end) into
// len(weights) contiguous spans whose sizes are proportional to the
// weights — entry i of the result is entry i of the weights, so a
// caller can attribute each span to the worker it planned it for. A
// span may come back EMPTY (Start == End) when its share rounds to
// zero runs (a zero or negative weight always does; so can any share
// when the range is shorter than the slot count). The union of the
// non-empty spans covers [start, end) exactly, and every rounded share
// is within one run of its exact n·wᵢ/Σw quota. Equal weights
// reproduce SplitSpan's balanced arithmetic. Like any contiguous
// decomposition, the split only moves load — merges stay bit-identical.
func SplitSpanWeighted(start, end int, weights []float64) []engine.Shard {
	n := end - start
	if n <= 0 || len(weights) == 0 {
		return nil
	}
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	out := make([]engine.Shard, 0, len(weights))
	if total <= 0 {
		// All weights degenerate: fall back to a balanced split.
		for i := range weights {
			a := start + i*n/len(weights)
			b := start + (i+1)*n/len(weights)
			out = append(out, engine.Span(a, b))
		}
		return out
	}
	lo, cum := 0, 0.0
	for i, w := range weights {
		if w > 0 {
			cum += w
		}
		// Cumulative rounding keeps every boundary within one run of its
		// exact quota, so no share drifts as errors accumulate. The
		// epsilon pulls boundaries sitting a float-rounding hair below an
		// integer up onto it (equal weights then reproduce the integer
		// arithmetic of SplitSpan exactly).
		hi := int(math.Floor(float64(n)*cum/total + 1e-9))
		if hi < lo {
			hi = lo
		}
		if hi > n || i == len(weights)-1 {
			hi = n
		}
		out = append(out, engine.Span(start+lo, start+hi))
		lo = hi
	}
	return out
}
