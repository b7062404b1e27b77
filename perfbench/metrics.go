package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name, Unit string
}

// endToEnd are the metrics a user of the system sees, printed by every
// untraced run (--trace 0). Campaign p90, failed_share and max_rss_mb
// are printed on the human-readable lines instead: p90 only where the
// tail rule allows it, failures through the result's attempted/failed
// counts, and peak memory because it follows the unpinned block width.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"runs_per_s", "1/s"},
	{"campaign_s.p50", "s"},
	{"cpu_us_per_run", "us"},
	{"allocs_per_run", "count"},
}

// perLayer are the traced run's metrics (--trace 1). Every workload
// prints all of them; a layer the workload bypasses reads 0.
var perLayer = []metricDef{
	{"chaff.generate_ns_per_run", "ns"},
	{"chaff.gamma_ns_per_run", "ns"},
	{"chaff.gamma_calls_per_run", "count"},
	{"markov.sample_ns_per_slot", "ns"},
	{"detect.pack_ns_per_run", "ns"},
	{"detect.score_ns_per_slot", "ns"},
	{"engine.accumulate_ns_per_run", "ns"},
	{"engine.blocks", "count"},
	{"tune.block", "runs"},
	{"tune.calibrate_s", "s"},
	{"figures.tracelab_build_s", "s"},
	{"worker.shard_s.p50", "s"},
	{"wire.overhead_s.p50", "s"},
	{"wire.bytes_sent", "bytes"},
	{"wire.bytes_received", "bytes"},
	{"coordinator.self_s", "s"},
	{"coordinator.worker_idle_share", "share"},
	{"coordinator.dispatches", "count"},
	{"coordinator.results", "count"},
	{"coordinator.speculative", "count"},
	{"coordinator.failures", "count"},
	{"coordinator.banked", "count"},
	{"report.encode_us", "us"},
	{"report.decode_us", "us"},
	{"report.merge_us", "us"},
	{"report.bytes", "bytes"},
	{"store.put_us", "us"},
	{"store.get_us", "us"},
	{"trace.unattributed_share", "share"},
	{"trace.overhead_share", "share"},
}

var (
	namePattern = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitPattern = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// metric is one measured value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics collects a run's values by name.
type metrics map[string]metric

// result is the run's last line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// complete fills in the units and checks that m holds exactly the
// defined metrics, each a finite number.
func (m metrics) complete(defs []metricDef) error {
	if len(m) != len(defs) {
		return fmt.Errorf("measured %d metrics, want %d", len(m), len(defs))
	}
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s is not finite: %v", d.Name, v.Value)
		}
		v.Unit = d.Unit
		m[d.Name] = v
	}
	return nil
}

// set records a value; its unit is filled in by complete.
func (m metrics) set(name string, v float64) { m[name] = metric{Value: v} }

// writeResult prints one line per metric for people, then the result
// object as the last line.
func writeResult(w io.Writer, res result) error {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "metric %-32s %16.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	blob, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", blob)
	return err
}
