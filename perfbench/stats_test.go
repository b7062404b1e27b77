package main

import "testing"

func TestPercentileNearestRankWithCounts(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for _, c := range []struct {
		p           float64
		value       float64
		beyond      int
		reportable  bool
		description string
	}{
		{0.5, 50, 50, true, "median of 1..100"},
		{0.9, 90, 10, true, "p90 of 100 samples leaves exactly 10 beyond"},
		{0.95, 95, 5, false, "p95 of 100 samples leaves 5 beyond"},
		{1, 100, 0, false, "the maximum has nothing beyond"},
	} {
		q := percentile(xs, c.p)
		if q.Value != c.value || q.Beyond != c.beyond || q.N != 100 || q.Reportable() != c.reportable {
			t.Errorf("%s: got %+v reportable=%v", c.description, q, q.Reportable())
		}
	}
	if xs[0] != 100 {
		t.Fatal("percentile sorted its input in place")
	}
}

func TestTailRuleNeedsTenBeyond(t *testing.T) {
	for n, want := range map[int]bool{99: false, 100: true, 250: true} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		if got := percentile(xs, 0.9).Reportable(); got != want {
			t.Errorf("p90 of %d samples reportable = %v, want %v", n, got, want)
		}
	}
	if (quantile{}).Reportable() {
		t.Error("an empty sample is reportable")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v", got)
	}
}

func TestTallyCountsFailedShare(t *testing.T) {
	var tl tally
	if tl.share() != 0 {
		t.Fatal("empty tally has a failed share")
	}
	for _, ok := range []bool{true, false, true, true} {
		tl.record(ok)
	}
	if tl.attempted != 4 || tl.failed != 1 || tl.share() != 0.25 {
		t.Fatalf("tally = %+v share %v, want 4 attempted, 1 failed, 0.25", tl, tl.share())
	}
}
