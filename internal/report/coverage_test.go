package report

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"chaffmec/internal/engine"
)

// part fabricates a bare partial covering [start, start+count) — enough
// for Coverage's range bookkeeping, which never looks at aggregates.
func part(start, count int) *Report {
	return &Report{Name: "cov", Kind: "single", TotalRuns: 100, RunStart: start, RunCount: count}
}

func TestCoverageAddAndGaps(t *testing.T) {
	c := NewCoverage()
	for _, p := range []*Report{part(50, 25), part(0, 25)} {
		ok, err := c.Add(p)
		if err != nil || !ok {
			t.Fatalf("Add([%d,%d)) = %v, %v", p.RunStart, p.RunStart+p.RunCount, ok, err)
		}
	}
	if got := c.Covered(); got != 50 {
		t.Fatalf("Covered = %d, want 50", got)
	}
	if c.Complete(0, 100) {
		t.Fatal("Complete with two gaps")
	}
	gaps := c.Gaps(0, 100)
	want := [][2]int{{25, 50}, {75, 100}}
	if len(gaps) != len(want) || gaps[0] != want[0] || gaps[1] != want[1] {
		t.Fatalf("Gaps = %v, want %v", gaps, want)
	}
	for _, g := range gaps {
		if ok, err := c.Add(part(g[0], g[1]-g[0])); err != nil || !ok {
			t.Fatalf("filling gap %v: %v, %v", g, ok, err)
		}
	}
	if !c.Complete(0, 100) {
		t.Fatalf("still gapped: %v", c.Gaps(0, 100))
	}
}

func TestCoverageDropsExactDuplicates(t *testing.T) {
	c := NewCoverage()
	if _, err := c.Add(part(0, 25)); err != nil {
		t.Fatal(err)
	}
	// A retried shard returning the identical range is dropped, not an
	// error — shard results are pure functions of their range.
	ok, err := c.Add(part(0, 25))
	if err != nil || ok {
		t.Fatalf("duplicate Add = %v, %v; want dropped", ok, err)
	}
	// A sub-range of recorded coverage is equally redundant.
	ok, err = c.Add(part(5, 10))
	if err != nil || ok {
		t.Fatalf("contained Add = %v, %v; want dropped", ok, err)
	}
	// A late straggler spanning two recorded parts is redundant too.
	if _, err := c.Add(part(25, 25)); err != nil {
		t.Fatal(err)
	}
	ok, err = c.Add(part(10, 30))
	if err != nil || ok {
		t.Fatalf("spanning duplicate Add = %v, %v; want dropped", ok, err)
	}
	if got := c.Covered(); got != 50 {
		t.Fatalf("Covered = %d, want 50", got)
	}
}

func TestCoverageRejectsPartialOverlap(t *testing.T) {
	c := NewCoverage()
	if _, err := c.Add(part(10, 10)); err != nil {
		t.Fatal(err)
	}
	for _, p := range []*Report{part(5, 10), part(15, 10), part(5, 20)} {
		_, err := c.Add(p)
		if err == nil {
			t.Fatalf("Add([%d,%d)) accepted an overlap", p.RunStart, p.RunStart+p.RunCount)
		}
		if !strings.Contains(err.Error(), "overlaps") {
			t.Fatalf("overlap error %q does not say so", err)
		}
	}
	if _, err := c.Add(part(0, 0)); err == nil {
		t.Fatal("empty partial accepted")
	}
}

// TestMergeErrorsNameShardRange pins the satellite fix: rejections from
// Merge name the offending shard's run range so coordinator retry logs
// are actionable.
func TestMergeErrorsNameShardRange(t *testing.T) {
	mk := func(start, count int, mutate func(*Report)) *Report {
		r := &Report{Name: "exp", Kind: "single", Seed: 1, Horizon: 4,
			TotalRuns: 20, RunStart: start, RunCount: count, Stream: "v1"}
		if mutate != nil {
			mutate(r)
		}
		return r
	}
	cases := []struct {
		name string
		a, b *Report
		want string
	}{
		{"stream", mk(0, 10, nil), mk(10, 10, func(r *Report) { r.Stream = "v2" }), "shard [10,20)"},
		{"spec", mk(0, 10, func(r *Report) { r.Spec = []byte(`{"a":1}`) }),
			mk(10, 10, func(r *Report) { r.Spec = []byte(`{"a":2}`) }), "shard [10,20)"},
		{"gap", mk(0, 10, nil), mk(12, 8, nil), "[12,20)"},
		{"keys", mk(0, 10, nil), mk(10, 10, func(r *Report) { r.Scalars = map[string]engine.ScalarSnapshot{"x": {}} }), "shard [10,20)"},
	}
	for _, tc := range cases {
		_, err := Merge(tc.a, tc.b)
		if err == nil {
			t.Fatalf("%s: merge accepted", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not name %s", tc.name, err, tc.want)
		}
	}
}

// FuzzCoverageMerge checks the Coverage/Merge algebra over random shard
// decompositions of [0, total): every shard of a buildPart run is added
// in a random order, interleaved with exact duplicates and random-range
// probes, and every Add must agree with a per-run bitmap — a range wholly
// recorded is dropped, one partly recorded is an error, one unrecorded
// is kept. With every shard added, Merged equals the whole run's JSON
// wire bit for bit; with one shard withheld, Complete is false and
// Gaps names exactly that shard.
func FuzzCoverageMerge(f *testing.F) {
	f.Add(uint8(29), []byte{3, 7, 1, 0, 250, 9, 4, 4, 2, 8, 0, 1})
	f.Add(uint8(1), []byte{0})
	f.Add(uint8(64), []byte{255, 254, 0, 1, 2, 3, 128, 77, 5, 6, 7})
	f.Add(uint8(13), []byte{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0x81})
	f.Fuzz(func(t *testing.T, size uint8, plan []byte) {
		next := func() int { // the plan's next byte, 0 once it runs out
			if len(plan) == 0 {
				return 0
			}
			b := plan[0]
			plan = plan[1:]
			return int(b)
		}
		total := 1 + int(size)%64
		whole := buildPart(t, 0, total, total)
		whole.ElapsedMS = 0
		var shards [][2]int
		for a := 0; a < total; {
			b := min(total, a+1+next()%16)
			shards = append(shards, [2]int{a, b})
			a = b
		}
		withheld := -1
		if flags := next(); flags&1 == 1 {
			withheld = flags / 2 % len(shards)
		}
		for i := len(shards) - 1; i > 0; i-- { // Fisher–Yates from the plan
			j := next() % (i + 1)
			shards[i], shards[j] = shards[j], shards[i]
		}

		c := NewCoverage()
		covered := make([]bool, total)
		add := func(a, b int) {
			n := 0
			for _, on := range covered[a:b] {
				if on {
					n++
				}
			}
			p := buildPart(t, a, b, total)
			p.ElapsedMS = 0
			kept, err := c.Add(p)
			switch {
			case n == 0 && (err != nil || !kept):
				t.Fatalf("unrecorded [%d,%d): Add = %v, %v; want kept", a, b, kept, err)
			case n == b-a && (err != nil || kept):
				t.Fatalf("recorded [%d,%d): Add = %v, %v; want dropped", a, b, kept, err)
			case n > 0 && n < b-a && err == nil:
				t.Fatalf("[%d,%d) overlaps recorded coverage without matching it, Add = %v", a, b, kept)
			}
			if n == 0 {
				for i := a; i < b; i++ {
					covered[i] = true
				}
			}
		}
		var withheldRange [2]int
		var added [][2]int
		for i, s := range shards {
			if i == withheld {
				withheldRange = s
				continue
			}
			add(s[0], s[1])
			added = append(added, s)
			switch next() % 3 {
			case 1: // a retried shard: an exact duplicate
				d := added[next()%len(added)]
				add(d[0], d[1])
			case 2: // a straggler or a misplanned shard: a random range
				a := next() % total
				b := a + 1 + next()%(total-a)
				if slices.Contains(covered[a:b], true) { // an unrecorded range would change the decomposition
					add(a, b)
				}
			}
		}

		if withheld >= 0 {
			if c.Complete(0, total) {
				t.Fatalf("complete with shard %v withheld", withheldRange)
			}
			if gaps := c.Gaps(0, total); len(gaps) != 1 || gaps[0] != withheldRange {
				t.Fatalf("gaps = %v, want exactly the withheld shard %v", gaps, withheldRange)
			}
			return
		}
		if !c.Complete(0, total) {
			t.Fatalf("incomplete after every shard: gaps %v", c.Gaps(0, total))
		}
		merged, err := c.Merged()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := jsonWire(t, []*Report{merged}), jsonWire(t, []*Report{whole}); !bytes.Equal(got, want) {
			t.Fatalf("merged shards differ from the whole run:\n got %s\nwant %s", got, want)
		}
	})
}
