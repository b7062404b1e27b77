package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

func TestMetricNamesAndUnitsMatchThePattern(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !namePattern.MatchString(d.Name) {
			t.Errorf("metric name %q does not match [A-Za-z0-9_.-]+ (letter or digit first, at most 64)", d.Name)
		}
		if !unitPattern.MatchString(d.Unit) {
			t.Errorf("unit %q of %s is not a valid unit", d.Unit, d.Name)
		}
		if seen[d.Name] {
			t.Errorf("metric %s defined twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, bad := range []string{"", ".leading", "has space", "slash/name", strings.Repeat("a", 65)} {
		if namePattern.MatchString(bad) {
			t.Errorf("name pattern accepts %q", bad)
		}
	}
	for _, name := range fleetOnly {
		if !seen[name] {
			t.Errorf("fleet-only metric %s is not a defined metric", name)
		}
	}
}

// TestBenchmarkJSONListsTheMetrics keeps BENCHMARK.json and the
// program's metric tables in step.
func TestBenchmarkJSONListsTheMetrics(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json next to the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		var a, b []string
		for _, m := range got {
			a = append(a, m.Name+" "+m.Unit)
		}
		for _, m := range want {
			b = append(b, m.Name+" "+m.Unit)
		}
		sort.Strings(a)
		sort.Strings(b)
		if strings.Join(a, ",") != strings.Join(b, ",") {
			t.Errorf("%s: BENCHMARK.json lists %v, the program prints %v", what, a, b)
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("workloads %v, want %v", names, workloadNames)
	}
}

func TestCompleteRequiresExactlyTheDefinedMetrics(t *testing.T) {
	m := metrics{}
	for _, d := range endToEnd {
		m.set(d.Name, 1.5)
	}
	if err := m.complete(endToEnd); err != nil {
		t.Fatal(err)
	}
	if m["setup_s"].Unit != "s" {
		t.Errorf("unit not filled in: %+v", m["setup_s"])
	}
	m.set("extra", 1)
	if m.complete(endToEnd) == nil {
		t.Error("an extra metric passed")
	}
	delete(m, "extra")
	delete(m, "setup_s")
	if m.complete(endToEnd) == nil {
		t.Error("a missing metric passed")
	}
}

func TestResultIsTheLastLine(t *testing.T) {
	var buf bytes.Buffer
	res := result{Correct: true, Attempted: 3, Failed: 0, Metrics: metrics{"runs_per_s": {Value: 123.456789, Unit: "1/s"}}}
	if err := writeResult(&buf, res); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	var back map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &back); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	var keys []string
	for k := range back {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if strings.Join(keys, ",") != "attempted,correct,failed,metrics" {
		t.Errorf("result keys %v", keys)
	}
	if !strings.Contains(lines[len(lines)-1], "123.456789") {
		t.Errorf("value lost digits: %s", lines[len(lines)-1])
	}
}
