package figures

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"chaffmec/internal/chaff"
	"chaffmec/internal/detect"
	"chaffmec/internal/geo"
	"chaffmec/internal/markov"
	"chaffmec/internal/rng"
	"chaffmec/internal/sim"
	"chaffmec/internal/trace"
	"chaffmec/internal/tracegen"
)

// TraceConfig parameterises the trace-driven pipeline of Section VII-B.
// The CRAWDAD taxi dataset and antennasearch tower list are replaced by
// synthetic equivalents (internal/tracegen); the paper's extraction is 174
// nodes over 100 one-minute slots quantised into 959 Voronoi cells.
type TraceConfig struct {
	// Seed drives trace generation, tower placement, and chaff control.
	Seed int64
	// Nodes is the fleet size before inactivity filtering.
	Nodes int
	// Minutes is the observation window (= slot count at 1-minute slots).
	Minutes int
	// TowerClusters / TowersPerCluster / BackgroundTowers shape the tower
	// field; defaults land near the paper's 959 cells after 100 m dedup.
	TowerClusters    int
	TowersPerCluster int
	BackgroundTowers int
}

// DefaultTraceConfig mirrors the paper's extraction.
func DefaultTraceConfig() TraceConfig {
	return TraceConfig{
		Seed:             1,
		Nodes:            174,
		Minutes:          100,
		TowerClusters:    12,
		TowersPerCluster: 70,
		BackgroundTowers: 420,
	}
}

func (c TraceConfig) withDefaults() TraceConfig {
	d := DefaultTraceConfig()
	if c.Nodes <= 0 {
		c.Nodes = d.Nodes
	}
	if c.Minutes <= 0 {
		c.Minutes = d.Minutes
	}
	if c.TowerClusters <= 0 {
		c.TowerClusters = d.TowerClusters
	}
	if c.TowersPerCluster <= 0 {
		c.TowersPerCluster = d.TowersPerCluster
	}
	if c.BackgroundTowers <= 0 {
		c.BackgroundTowers = d.BackgroundTowers
	}
	return c
}

// TraceLab is the shared trace-driven experiment setup used by Figs. 8–10:
// active-node trajectories over Voronoi cells and the empirical mobility
// chain fitted from them.
type TraceLab struct {
	// Nodes are the active node ids, aligned with Trajectories.
	Nodes []string
	// Trajectories are the quantised cell trajectories.
	Trajectories []markov.Trajectory
	// Chain is the empirical mobility model (with empirical steady state).
	Chain *markov.Chain
	// Quantizer defines the Voronoi cells; NumCells = Quantizer.NumCells.
	Quantizer *geo.Quantizer
	// Horizon is the slot count.
	Horizon int
	// FilteredNodes counts nodes dropped by the 5-minute inactivity rule.
	FilteredNodes int
}

// BuildTraceLab generates traces and towers, runs the regularisation /
// filtering / quantisation pipeline, and fits the empirical chain.
func BuildTraceLab(cfg TraceConfig) (*TraceLab, error) {
	cfg = cfg.withDefaults()
	genCfg := tracegen.DefaultConfig()
	genCfg.Nodes = cfg.Nodes
	genCfg.DurationMin = float64(cfg.Minutes)

	rng := rng.New(cfg.Seed)
	records, _, err := tracegen.Generate(rng, genCfg)
	if err != nil {
		return nil, fmt.Errorf("figures: generating traces: %w", err)
	}
	towers, err := geo.GenerateTowers(rng, geo.TowerFieldConfig{
		Bounds:           genCfg.Bounds,
		Clusters:         cfg.TowerClusters,
		TowersPerCluster: cfg.TowersPerCluster,
		ClusterSpread:    1500,
		BackgroundTowers: cfg.BackgroundTowers,
		MinSeparation:    100, // the paper's dedup radius
	})
	if err != nil {
		return nil, fmt.Errorf("figures: generating towers: %w", err)
	}
	quant, err := geo.NewQuantizer(towers)
	if err != nil {
		return nil, err
	}

	set := trace.NewSet(records)
	// Stream the fleet through the pipeline node by node: each active
	// node's resampled points (a reused buffer) are quantised and folded
	// into the chain estimator immediately, so the raw position tracks
	// are never all materialized at once.
	est, err := trace.NewChainEstimator(quant.NumCells())
	if err != nil {
		return nil, err
	}
	var nodes []string
	var trajs []markov.Trajectory
	err = set.StreamRegularize(trace.RegularizeOptions{
		StartMinute: 0,
		Slots:       cfg.Minutes,
		IntervalMin: 1, // the paper's one-minute updates
		MaxGapMin:   5, // the paper's inactivity threshold
	}, func(node string, points []geo.Point) error {
		traj := markov.Trajectory(quant.QuantizeAll(points))
		if err := est.Add(traj); err != nil {
			return fmt.Errorf("figures: fitting empirical chain: %w", err)
		}
		nodes = append(nodes, node)
		trajs = append(trajs, traj)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(nodes) < 2 {
		return nil, errors.New("figures: fewer than two active nodes; cannot run multi-user experiments")
	}
	chain, err := est.Chain()
	if err != nil {
		return nil, fmt.Errorf("figures: fitting empirical chain: %w", err)
	}
	return &TraceLab{
		Nodes:         nodes,
		Trajectories:  trajs,
		Chain:         chain,
		Quantizer:     quant,
		Horizon:       cfg.Minutes,
		FilteredNodes: set.Len() - len(nodes),
	}, nil
}

// UserAccuracies returns each node's time-average tracking accuracy
// under the basic ML eavesdropper observing every trajectory — the
// multi-user evaluation of Fig. 9(a).
func (lab *TraceLab) UserAccuracies() ([]float64, error) {
	fleet, err := detect.NewFleet(lab.Chain, lab.Trajectories)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(lab.Trajectories))
	series := make([]float64, len(lab.Trajectories[0]))
	for u := range out {
		if err := fleet.Track(u, nil, nil, series); err != nil {
			return nil, err
		}
		out[u] = detect.TimeAverage(series)
	}
	return out, nil
}

// ProtectAndMeasure adds numChaffs chaffs generated by strategy for user u
// (an index into Trajectories) and returns u's time-average tracking
// accuracy under the basic ML eavesdropper observing all trajectories
// plus the chaffs.
func (lab *TraceLab) ProtectAndMeasure(u int, strategy chaff.Strategy, numChaffs int, seed int64) (float64, error) {
	if u < 0 || u >= len(lab.Trajectories) {
		return 0, fmt.Errorf("figures: user index %d outside [0,%d)", u, len(lab.Trajectories))
	}
	tr, err := lab.trace(strategy, numChaffs, false, nil)
	if err != nil {
		return 0, err
	}
	return traceAccuracy(tr, u, rng.New(seed))
}

// TopUsers returns the indices of the k most-tracked users (descending
// accuracy, ties in index order), together with all per-user accuracies.
func (lab *TraceLab) TopUsers(k int) ([]int, []float64, error) {
	if k < 1 || k > len(lab.Trajectories) {
		return nil, nil, fmt.Errorf("figures: k=%d outside [1,%d]", k, len(lab.Trajectories))
	}
	accs, err := lab.UserAccuracies()
	if err != nil {
		return nil, nil, err
	}
	idx := make([]int, len(accs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return accs[idx[a]] > accs[idx[b]] })
	return idx[:k], accs, nil
}

// trace is the eavesdropper watching the lab's fleet plus numChaffs
// chaffs of strategy: the trace scenario kind's (sim.NewTrace).
func (lab *TraceLab) trace(strategy chaff.Strategy, numChaffs int, advanced bool, gamma detect.CappedGammaFunc) (*sim.Trace, error) {
	fleet, err := detect.NewFleet(lab.Chain, lab.Trajectories)
	if err != nil {
		return nil, err
	}
	return sim.NewTrace(lab.Chain, fleet, lab.Trajectories, strategy, numChaffs, advanced, gamma)
}

// traceAccuracy is user u's time-average tracking accuracy in one run of
// tr, its chaffs drawn from rng.
func traceAccuracy(tr *sim.Trace, u int, rng *rand.Rand) (float64, error) {
	w := tr.NewWorker()
	defer w.Release()
	out := make([][]float64, 1)
	if err := tr.RunBlock(w, u, []*rand.Rand{rng}, out); err != nil {
		return 0, err
	}
	return detect.TimeAverage(out[0]), nil
}
