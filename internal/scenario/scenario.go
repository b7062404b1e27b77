// Package scenario is the one experiment API above the Monte-Carlo
// engine: a registry of named scenario kinds, each a function from a
// declarative Spec to a serializable report.Report, plus the Job
// envelope (spec + shard selector) and a JSON loader, so new experiments
// — larger populations, different eavesdroppers, mixed chaff strategies,
// trace-driven fleets, MEC episode batches — are a config entry rather
// than a new package. Every kind supports context cancellation and
// contiguous run-range sharding: complementary shards of one Job, run by
// different processes and merged with report.Merge, reproduce the
// single-process Report bit-for-bit.
//
// Execution is adaptive through the same registry path: a Spec carrying
// a Precision block runs in SE-targeted rounds (RunJob dispatches to
// RunAdaptive — explicit-range shards [n₁,n₂) extend the covered range
// until the tracked standard error meets the target). RunRounds is the
// one round loop; the distributed coordinator drives it too, and its
// store journal is what continues an interrupted job. cmd/experiments
// exposes the layer via -scenario/-shard/-merge/-target-se/-store; the
// chaffmec facade via RunJob/RunAdaptiveJob and Fleet.
//
// Built-in kinds. The first four are synthetic populations: each only
// builds an internal/sim scenario, and one runner executes it.
//
//   - "single": one user, one chaff strategy, basic or strategy-aware
//     (advanced) eavesdropper.
//   - "multiuser": a target among OtherUsers unprotected coexisting
//     users, optional chaffs, basic or advanced eavesdropper — "hetero"
//     with one unprotected member.
//   - "mixed": a mixed-strategy chaff population: every strategy listed
//     in Strategies contributes NumChaffs chaffs for the same user, and
//     the basic eavesdropper observes the union.
//   - "hetero": a heterogeneous population — every coexisting user in
//     Population follows its own mobility model and runs its own chaff
//     strategy, and the eavesdropper observes everything.
//   - "trace": a TraceLab-backed fleet (synthetic taxi traces quantised
//     into Voronoi cells, Section VII-B): the fixed observed population
//     plus per-run chaff streams protecting one top-tracked user.
//   - "mecbatch": MEC substrate episodes (migration events, failure
//     injection, cost accounting) aggregated with cost curves.
//
// Mobility models are named by the paper's labels ("non-skewed",
// "spatially-skewed", "temporally-skewed", "both-skewed") or "grid" for a
// 2-D lazy-walk over a GridW×GridH cell layout at any scale.
package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"chaffmec/internal/detect"
	"chaffmec/internal/engine"
	"chaffmec/internal/markov"
	"chaffmec/internal/mobility"
	"chaffmec/internal/report"
	"chaffmec/internal/rng"
)

// Member declares one slice of the "hetero" kind's population.
type Member struct {
	// Strategy protects this member's Count users with NumChaffs chaffs
	// each (default 1 chaff); empty leaves them unprotected.
	Strategy  string `json:"strategy,omitempty"`
	NumChaffs int    `json:"num_chaffs,omitempty"`
	// Count is the number of users in this slice (default 1).
	Count int `json:"count,omitempty"`
	// Model overrides the spec's mobility model for this slice.
	Model string `json:"model,omitempty"`
}

// Spec declares one scenario instance. Zero-valued fields take the
// defaults documented per field; kinds ignore fields that do not apply.
type Spec struct {
	// Name labels the scenario in outputs (default: its kind).
	Name string `json:"name,omitempty"`
	// Kind selects the registered runner (see Kinds).
	Kind string `json:"kind"`

	// Model names the user's mobility model: one of the paper's synthetic
	// models ("non-skewed", "spatially-skewed", "temporally-skewed",
	// "both-skewed") or "grid" (default "non-skewed").
	Model string `json:"model,omitempty"`
	// Chain, when non-nil, is used as the target's mobility model instead
	// of building one from Model — the hook library callers (the chaffmec
	// facade's Evaluate) use to run custom chains through the registry.
	// Not expressible in JSON configs.
	Chain *markov.Chain `json:"-"`
	// Cells sizes the synthetic models (default 10, the paper's L).
	Cells int `json:"cells,omitempty"`
	// ModelSeed seeds the random-matrix models (and the "trace" kind's
	// synthetic fleet); 0 derives it from Seed the same way
	// internal/figures does.
	ModelSeed int64 `json:"model_seed,omitempty"`
	// GridW, GridH size the "grid" model (default 5×5); PMove is its
	// per-slot move probability (default 0.7).
	GridW int     `json:"grid_w,omitempty"`
	GridH int     `json:"grid_h,omitempty"`
	PMove float64 `json:"p_move,omitempty"`

	// Strategy is the chaff strategy name (see chaff.Names); empty means
	// unprotected where the kind allows it ("multiuser", "hetero",
	// "trace"). For "mecbatch" it must name an online controller (IM,
	// CML, MO, RMO, Rollout).
	Strategy string `json:"strategy,omitempty"`
	// Strategies lists the population of the "mixed" kind.
	Strategies []string `json:"strategies,omitempty"`
	// NumChaffs is the chaff budget per strategy (default 1).
	NumChaffs int `json:"num_chaffs,omitempty"`
	// Advanced upgrades the eavesdropper to the strategy-aware detector
	// of Section VI-A (requires a strategy with a deterministic Γ).
	Advanced bool `json:"advanced,omitempty"`
	// Gamma, when non-nil and Advanced is set, is the strategy map the
	// advanced eavesdropper assumes, instead of deriving it from
	// Strategy — the injection hook paired with Chain (the facade's
	// Evaluate passes the Γ it already probed). It takes the
	// co-location cap (detect.CappedGammaFunc). Not expressible in JSON.
	Gamma detect.CappedGammaFunc `json:"-"`

	// OtherUsers adds coexisting users ("multiuser" kind), following
	// OtherModel (default: the target's model).
	OtherUsers int    `json:"other_users,omitempty"`
	OtherModel string `json:"other_model,omitempty"`

	// Population declares the "hetero" kind's coexisting users.
	Population []Member `json:"population,omitempty"`

	// Nodes sizes the "trace" kind's synthetic fleet before inactivity
	// filtering (default 174, the paper's extraction); TraceUser selects
	// the protected user by tracked-ness rank (0 = most tracked).
	Nodes     int `json:"nodes,omitempty"`
	TraceUser int `json:"trace_user,omitempty"`

	// MigrationFailProb drops each "mecbatch" migration independently
	// with this probability; Threshold switches the real-service policy
	// to tolerate that many grid hops of user-service distance
	// (0: follow the user every slot).
	MigrationFailProb float64 `json:"migration_fail_prob,omitempty"`
	Threshold         int     `json:"threshold,omitempty"`

	// Horizon is T (default 100); Runs the Monte-Carlo repetitions
	// (default 1000); Seed the experiment seed; Workers the parallelism
	// cap (default GOMAXPROCS).
	Horizon int   `json:"horizon,omitempty"`
	Runs    int   `json:"runs,omitempty"`
	Seed    int64 `json:"seed,omitempty"`
	Workers int   `json:"workers,omitempty"`

	// Precision, when non-nil with a positive target, switches the
	// scenario to adaptive round-based execution: runs are added in
	// rounds until the tracked standard error reaches the target (or
	// MaxRuns), instead of executing a fixed Runs count. Every kind runs
	// adaptively through the same dispatch (RunJob).
	Precision *Precision `json:"precision,omitempty"`
}

// Precision is a Spec's adaptive-execution block: the standard-error
// goal and run-count bounds of the precision target (engine.Target in
// declarative form).
type Precision struct {
	// TargetSE is the standard-error goal the adaptive rounds chase.
	TargetSE float64 `json:"target_se"`
	// Series names the tracked series (its worst per-slot standard error
	// is compared against TargetSE); Scalar instead names a scalar
	// aggregate, e.g. a "mecbatch" cost counter. Both empty tracks the
	// canonical "tracking" series.
	Series string `json:"series,omitempty"`
	Scalar string `json:"scalar,omitempty"`
	// MinRuns (default 32) floors the run count before the goal may
	// stop the experiment; MaxRuns (default: the spec's Runs) caps it.
	MinRuns int `json:"min_runs,omitempty"`
	MaxRuns int `json:"max_runs,omitempty"`
}

// target resolves the spec's precision block into a normalized
// engine.Target; the zero Target (disabled) when the spec has none.
func (sp Spec) target() (engine.Target, error) {
	p := sp.Precision
	if p == nil {
		return engine.Target{}, nil
	}
	t := engine.Target{
		Series: p.Series, Scalar: p.Scalar,
		SE: p.TargetSE, MinRuns: p.MinRuns, MaxRuns: p.MaxRuns,
	}
	t = t.Normalized(sp.options(engine.Shard{}).Normalized().Runs)
	if err := t.Validate(); err != nil {
		return engine.Target{}, err
	}
	return t, nil
}

func (sp Spec) withDefaults() Spec {
	if sp.Name == "" {
		sp.Name = sp.Kind
	}
	if sp.Model == "" {
		sp.Model = "non-skewed"
	}
	if sp.Cells <= 0 {
		sp.Cells = 10
	}
	if sp.GridW <= 0 {
		sp.GridW = 5
	}
	if sp.GridH <= 0 {
		sp.GridH = 5
	}
	if sp.PMove <= 0 {
		sp.PMove = 0.7
	}
	if sp.NumChaffs <= 0 {
		sp.NumChaffs = 1
	}
	if sp.Horizon <= 0 {
		sp.Horizon = 100
	}
	if sp.OtherModel == "" {
		sp.OtherModel = sp.Model
	}
	return sp
}

// options assembles the engine options of a (spec, shard) pair — the one
// place the Monte-Carlo knobs of the Spec meet the Job's shard selector.
func (sp Spec) options(shard engine.Shard) engine.Options {
	return engine.Options{Runs: sp.Runs, Seed: sp.Seed, Workers: sp.Workers, Shard: shard}
}

// envelope starts a Report for the (spec, shard) pair with the full
// provenance header filled in; runners attach their series and scalars.
func (sp Spec) envelope(shard engine.Shard) *report.Report {
	o := sp.options(shard).Normalized()
	start, end := o.Range()
	return &report.Report{
		Name: sp.Name, Kind: sp.Kind,
		Seed: o.Seed, Horizon: sp.Horizon,
		TotalRuns: o.Runs, RunStart: start, RunCount: end - start,
		Stream: rng.StreamVersion,
	}
}

// Result is a scenario's aggregated outcome in digest form — the
// human-facing view of a complete Report.
type Result struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	// PerSlot is the eavesdropper's mean per-slot tracking accuracy,
	// PerSlotStdErr its standard error, Overall its time average.
	PerSlot       []float64 `json:"per_slot"`
	PerSlotStdErr []float64 `json:"per_slot_stderr"`
	Overall       float64   `json:"overall"`
	// Runs echoes the aggregated repetition count.
	Runs int `json:"runs"`
}

// ResultOf digests a report into the Result view.
func ResultOf(r *report.Report) (*Result, error) {
	sum, err := r.Summary()
	if err != nil {
		return nil, err
	}
	return &Result{
		Name: r.Name, Kind: r.Kind,
		PerSlot: sum.PerSlot, PerSlotStdErr: sum.PerSlotStdErr,
		Overall: sum.Overall, Runs: sum.Runs,
	}, nil
}

// Runner executes one scenario kind over one shard of its run range.
type Runner func(ctx context.Context, sp Spec, shard engine.Shard) (*report.Report, error)

var registry = map[string]Runner{}

// Register adds a scenario kind; duplicate kinds panic (registration is
// an init-time programming error).
func Register(kind string, r Runner) {
	if _, dup := registry[kind]; dup {
		panic(fmt.Sprintf("scenario: duplicate kind %q", kind))
	}
	registry[kind] = r
}

// Kinds lists the registered scenario kinds in sorted order.
func Kinds() []string {
	out := make([]string, 0, len(registry))
	for k := range registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// File is the JSON config format: file-level defaults applied to every
// scenario that does not spell the corresponding field out itself (an
// explicit value — even zero — always wins over a default).
type File struct {
	Defaults struct {
		Runs    int   `json:"runs,omitempty"`
		Horizon int   `json:"horizon,omitempty"`
		Seed    int64 `json:"seed,omitempty"`
		Workers int   `json:"workers,omitempty"`
	} `json:"defaults,omitempty"`
	Scenarios []json.RawMessage `json:"scenarios"`
}

// Load parses a JSON scenario config. Unknown fields are rejected so
// config typos fail loudly instead of silently running the default.
func Load(r io.Reader) ([]Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var f File
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("scenario: parsing config: %w", err)
	}
	if len(f.Scenarios) == 0 {
		return nil, errors.New("scenario: config has no scenarios")
	}
	specs := make([]Spec, len(f.Scenarios))
	for i, raw := range f.Scenarios {
		sp := &specs[i]
		sd := json.NewDecoder(bytes.NewReader(raw))
		sd.DisallowUnknownFields()
		if err := sd.Decode(sp); err != nil {
			return nil, fmt.Errorf("scenario: parsing entry %d: %w", i, err)
		}
		// Defaults apply by key presence, not zero value: an explicit
		// "seed": 0 is a valid experiment seed and must survive.
		var present map[string]json.RawMessage
		if err := json.Unmarshal(raw, &present); err != nil {
			return nil, fmt.Errorf("scenario: parsing entry %d: %w", i, err)
		}
		if _, ok := present["runs"]; !ok {
			sp.Runs = f.Defaults.Runs
		}
		if _, ok := present["horizon"]; !ok {
			sp.Horizon = f.Defaults.Horizon
		}
		if _, ok := present["seed"]; !ok {
			sp.Seed = f.Defaults.Seed
		}
		if _, ok := present["workers"]; !ok {
			sp.Workers = f.Defaults.Workers
		}
	}
	return specs, nil
}

// LoadFile is Load over a path.
func LoadFile(path string) ([]Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}

// buildChain resolves Spec's mobility-model fields for the target (an
// injected Chain wins over Model).
func buildChain(model string, sp Spec) (*markov.Chain, error) {
	if sp.Chain != nil && strings.EqualFold(model, sp.Model) {
		return sp.Chain, nil
	}
	switch strings.ToLower(strings.TrimSpace(model)) {
	case "grid":
		grid, err := mobility.NewGrid(sp.GridW, sp.GridH)
		if err != nil {
			return nil, err
		}
		return grid.Walk(sp.PMove, mobility.DefaultEps)
	case "non-skewed":
		return buildSynthetic(mobility.ModelNonSkewed, sp)
	case "spatially-skewed":
		return buildSynthetic(mobility.ModelSpatiallySkewed, sp)
	case "temporally-skewed":
		return buildSynthetic(mobility.ModelTemporallySkewed, sp)
	case "both-skewed", "spatially&temporally-skewed":
		return buildSynthetic(mobility.ModelBothSkewed, sp)
	default:
		return nil, badSpec("unknown model %q", model)
	}
}

func buildSynthetic(id mobility.ModelID, sp Spec) (*markov.Chain, error) {
	if sp.ModelSeed != 0 {
		return mobility.Build(id, rng.New(sp.ModelSeed), sp.Cells)
	}
	// Mirror internal/figures: build on the canonical model stream of
	// the experiment seed so one config's figures share their models.
	return mobility.BuildDerived(id, sp.Seed, sp.Cells)
}

func init() {
	Register("single", runSingle)
	Register("multiuser", runMultiuser)
	Register("mixed", runMixed)
	Register("hetero", runHetero)
	Register("trace", runTrace)
	Register("mecbatch", runMecbatch)
}
