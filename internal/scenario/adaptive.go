package scenario

import (
	"context"
	"fmt"

	"chaffmec/internal/engine"
	"chaffmec/internal/report"
)

// Round describes one completed round of a job's round loop — the
// progress unit long jobs report.
type Round struct {
	// Start and End delimit the run range the round executed.
	Start, End int
	// Covered is the total covered run count after the round.
	Covered int
	// SE is the tracked standard error after the round (NaN when the
	// job has no precision target), Target the goal (0 when disabled).
	SE, Target float64
	// Done reports whether this was the final round.
	Done bool
}

// Progress observes completed rounds. It runs on the driving goroutine
// between rounds; a slow callback delays the next round, nothing else.
type Progress func(Round)

// RunAdaptive executes one whole job in rounds in this process. With a
// precision target (Spec.Precision) the schedule is SE-driven: rounds
// extend the covered run range [0,n₁) → [n₁,n₂) → … until the tracked
// standard error reaches the target (stopping somewhere in [MinRuns,
// MaxRuns]) or MaxRuns is exhausted, and the final report's TotalRuns
// is the adaptively chosen count. Without one it degenerates to a
// single round covering the spec's fixed Runs.
//
// On error — including ctx cancellation mid-round — the partial report
// accumulated from the COMPLETED rounds is returned alongside the
// error: a well-formed report whose coverage reflects only finished
// rounds.
func RunAdaptive(ctx context.Context, job Job, progress Progress) (*report.Report, error) {
	return RunRounds(ctx, job, func(ctx context.Context, start, end int) (*report.Report, error) {
		return runJobShard(ctx, Job{Spec: job.Spec, Shard: engine.Span(start, end)})
	}, progress)
}

// RunRounds is the one round loop of a whole job, shared by in-process
// execution (RunAdaptive) and the distributed coordinator: it asks the
// job's Plan for the next run range, has round execute [start, end) —
// in this process, or split over a fleet — stamps and appends the
// round's report, reports progress, and stops when the precision
// target or the spec's fixed Runs is met. Because the schedule is a
// pure function of the accumulated report, every executor covers the
// same rounds and the finished report is the same bits. Like
// RunAdaptive it returns the partial of the completed rounds alongside
// any error.
func RunRounds(ctx context.Context, job Job, round func(ctx context.Context, start, end int) (*report.Report, error), progress Progress) (*report.Report, error) {
	sp := job.Spec.withDefaults()
	if !job.Shard.IsWhole() {
		return nil, fmt.Errorf("scenario: round execution covers the whole run range, got shard %s", job.Shard)
	}
	plan, err := NewPlan(job.Spec)
	if err != nil {
		return nil, err
	}
	var acc *report.Report
	for {
		rp, err := plan.Next(acc)
		if err != nil {
			return acc, fmt.Errorf("scenario: %q: %w", sp.Name, err)
		}
		if rp.Done {
			break
		}
		rep, err := round(ctx, rp.Start, rp.End)
		if err != nil {
			return acc, err // acc: the well-formed partial of completed rounds
		}
		// Rounds cannot know an adaptive job's final count; stamp the cap
		// so successive partials agree until the loop stops.
		plan.Stamp(rep)
		if acc == nil {
			acc = rep
		} else if err := acc.Extend(rep); err != nil {
			return acc, fmt.Errorf("scenario: extending %q after round [%d,%d): %w", sp.Name, rp.Start, rp.End, err)
		}
		if progress != nil {
			peek, err := plan.Next(acc)
			if err != nil {
				return acc, fmt.Errorf("scenario: %q: %w", sp.Name, err)
			}
			progress(Round{Start: rp.Start, End: rp.End, Covered: acc.RunCount, SE: peek.SE, Target: plan.Target().SE, Done: peek.Done})
		}
	}
	// The experiment's run count is now known; the report covers the
	// whole adaptively chosen (or declared fixed) range.
	plan.Finalize(acc)
	return acc, nil
}
