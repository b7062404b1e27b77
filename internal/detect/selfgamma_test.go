package detect

import (
	"testing"

	"chaffmec/internal/markov"
)

// selfGammaBlock packs the advanced workload's runs (user, then its OO
// chaff, then any replica) into one block of ws.
func selfGammaBlock(t *testing.T, ws *Workspace, runs [][]markov.Trajectory) *Block {
	t.Helper()
	blk := ws.Block(len(runs), len(runs[0]), len(runs[0][0]))
	for r, trs := range runs {
		for u, tr := range trs {
			if err := blk.SetTrajectory(r, u, tr); err != nil {
				t.Fatal(err)
			}
		}
	}
	return blk
}

// TestSelfGammaDetectorMatchesCapped: reading Γ(user) from the chaff
// column and consulting OO's miss proof scores every run as the capped
// detector that computes both Γ calls does, with one chaff, with a
// replica (cap T) and with other users in the observation.
func TestSelfGammaDetectorMatchesCapped(t *testing.T) {
	for _, tc := range []struct {
		name    string
		others  int
		replica bool
	}{{"user+chaff", 0, false}, {"replicated chaff", 0, true}, {"other users", 3, false}} {
		c, oo, runs := advancedWorkload(t, 24, tc.others, tc.replica)
		capped, err := NewCappedAdvancedDetector(c, oo.GammaWithin)
		if err != nil {
			t.Fatal(err)
		}
		self, err := NewSelfGammaDetector(c, oo.GammaWithin, oo.ProvesMiss)
		if err != nil {
			t.Fatal(err)
		}
		want := selfGammaBlock(t, NewWorkspace(), runs)
		if err := capped.ScoreBlock(want, 0); err != nil {
			t.Fatal(err)
		}
		got := selfGammaBlock(t, NewWorkspace(), runs)
		if err := self.ScoreBlock(got, 0); err != nil {
			t.Fatal(err)
		}
		for r := range runs {
			for i, w := range want.Tracking(r) {
				if g := got.Tracking(r)[i]; g != w || got.Detection(r)[i] != want.Detection(r)[i] {
					t.Fatalf("%s run %d slot %d: self-Γ tracking %v detection %v, capped %v %v",
						tc.name, r, i, g, got.Detection(r)[i], w, want.Detection(r)[i])
				}
			}
		}
	}
}

// TestSelfGammaDetectorNeedsChaffColumn: a self-Γ block must have a
// column after the user's to read Γ(user) from.
func TestSelfGammaDetectorNeedsChaffColumn(t *testing.T) {
	c, oo, runs := advancedWorkload(t, 2, 0, false)
	self, err := NewSelfGammaDetector(c, oo.GammaWithin, oo.ProvesMiss)
	if err != nil {
		t.Fatal(err)
	}
	if err := self.ScoreBlock(selfGammaBlock(t, NewWorkspace(), runs), 1); err == nil {
		t.Fatal("self-Γ block scored with the user in the last column")
	}
}

// TestAdvancedSelfGammaAllocs pins a warm advanced block score at zero
// allocations when Γ(user) is the known chaff column and OO's cost proof
// rules out every Γ(chaff): the advanced-oo shape makes no OO plan in
// the detector at all.
func TestAdvancedSelfGammaAllocs(t *testing.T) {
	c, oo, runs := advancedWorkload(t, 16, 0, false)
	for v := 1; v < len(runs[0]); v++ {
		for r, trs := range runs {
			if !oo.ProvesMiss(trs, v) {
				t.Fatalf("run %d: no miss proof for Γ(trajectory %d); the pin needs one", r, v)
			}
		}
	}
	self, err := NewSelfGammaDetector(c, oo.GammaWithin, oo.ProvesMiss)
	if err != nil {
		t.Fatal(err)
	}
	blk := selfGammaBlock(t, NewWorkspace(), runs)
	if err := self.ScoreBlock(blk, 0); err != nil { // warm caches
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := self.ScoreBlock(blk, 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm self-Γ advanced ScoreBlock allocates %v per block, want 0", allocs)
	}
}
