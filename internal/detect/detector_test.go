package detect

import (
	"math"
	"testing"

	"chaffmec/internal/chaff"
	"chaffmec/internal/markov"
	"chaffmec/internal/mobility"
	"chaffmec/internal/rng"
)

func modelChain(t *testing.T, id mobility.ModelID) *markov.Chain {
	t.Helper()
	c, err := mobility.Build(id, rng.New(99), 10)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestPrefixDetectionsHandExample(t *testing.T) {
	// π = (0.25, 0.75). Trajectory A sits on the high-probability state;
	// trajectory B takes the rare transitions. A must win at every slot.
	c := markov.MustNew([][]float64{
		{0.7, 0.3},
		{0.1, 0.9},
	})
	a := markov.Trajectory{1, 1, 1}
	b := markov.Trajectory{0, 1, 0}
	dets, err := NewMLDetector(c).PrefixDetections([]markov.Trajectory{a, b})
	if err != nil {
		t.Fatal(err)
	}
	for slot, set := range dets {
		if len(set) != 1 || set[0] != 0 {
			t.Fatalf("slot %d: tie set %v, want [0]", slot, set)
		}
	}
}

func TestDetectTies(t *testing.T) {
	c := modelChain(t, mobility.ModelNonSkewed)
	tr, _ := c.Sample(rng.New(1), 20)
	dets, err := NewMLDetector(c).PrefixDetections([]markov.Trajectory{tr, tr.Clone()})
	if err != nil {
		t.Fatal(err)
	}
	for slot, set := range dets {
		if len(set) != 2 {
			t.Fatalf("slot %d: tie set %v, want both", slot, set)
		}
	}
	// Identical trajectories: tracking is perfect, detection a coin flip.
	track, err := TrackingAccuracySeries(dets, []markov.Trajectory{tr, tr.Clone()}, 0)
	if err != nil {
		t.Fatal(err)
	}
	det, err := DetectionAccuracySeries(dets, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	for slot := range track {
		if track[slot] != 1 {
			t.Fatalf("slot %d: tracking %v, want 1", slot, track[slot])
		}
		if det[slot] != 0.5 {
			t.Fatalf("slot %d: detection %v, want 0.5", slot, det[slot])
		}
	}
}

func TestDetectFullTrajectory(t *testing.T) {
	c := modelChain(t, mobility.ModelSpatiallySkewed)
	rng := rng.New(5)
	user, _ := c.Sample(rng, 30)
	chaffs, err := chaff.NewML(c).GenerateChaffs(rng, user, 1)
	if err != nil {
		t.Fatal(err)
	}
	set, err := NewMLDetector(c).Detect([]markov.Trajectory{user, chaffs[0]})
	if err != nil {
		t.Fatal(err)
	}
	// The ML chaff must be (weakly) preferred; the user can only appear in
	// the set on an exact tie.
	found := false
	for _, u := range set {
		if u == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("ML chaff not detected: tie set %v", set)
	}
}

func TestTrackingVsDetectionDistinction(t *testing.T) {
	// A chaff that co-locates with the user at one slot: wrong detection
	// can still track correctly at that slot.
	user := markov.Trajectory{0, 1, 0}
	ch := markov.Trajectory{1, 1, 1} // co-locates at slot 1 only
	dets := [][]int{{1}, {1}, {1}}   // detector always picks the chaff
	track, err := TrackingAccuracySeries(dets, []markov.Trajectory{user, ch}, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 1, 0}
	for slot := range want {
		if track[slot] != want[slot] {
			t.Fatalf("slot %d: tracking %v, want %v", slot, track[slot], want[slot])
		}
	}
	det, err := DetectionAccuracySeries(dets, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	for slot := range det {
		if det[slot] != 0 {
			t.Fatalf("slot %d: detection %v, want 0", slot, det[slot])
		}
	}
}

func TestDetectorValidation(t *testing.T) {
	c := modelChain(t, mobility.ModelNonSkewed)
	d := NewMLDetector(c)
	if _, err := d.PrefixDetections(nil); err == nil {
		t.Fatal("no trajectories accepted")
	}
	if _, err := d.PrefixDetections([]markov.Trajectory{{0, 1}, {0}}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := d.PrefixDetections([]markov.Trajectory{{0, 99}}); err == nil {
		t.Fatal("out-of-range state accepted")
	}
	if _, err := TrackingAccuracySeries([][]int{{0}}, []markov.Trajectory{{0}}, 5); err == nil {
		t.Fatal("bad user index accepted")
	}
	if _, err := DetectionAccuracySeries([][]int{{0}}, 1, -1); err == nil {
		t.Fatal("negative user index accepted")
	}
}

func TestTimeAverage(t *testing.T) {
	if got := TimeAverage([]float64{1, 0, 0.5, 0.5}); got != 0.5 {
		t.Fatalf("TimeAverage = %v, want 0.5", got)
	}
	if got := TimeAverage(nil); got != 0 {
		t.Fatalf("TimeAverage(nil) = %v, want 0", got)
	}
}

func TestAdvancedDetectorDefeatsML(t *testing.T) {
	// Section VI-A.2: knowing the ML strategy, the advanced eavesdropper
	// discards the ML trajectory and always tracks the user.
	c := modelChain(t, mobility.ModelBothSkewed)
	rng := rng.New(2)
	ml := chaff.NewML(c)
	adv, err := NewAdvancedDetector(c, ml.Gamma)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 10; trial++ {
		user, _ := c.Sample(rng, 40)
		chaffs, err := ml.GenerateChaffs(rng, user, 1)
		if err != nil {
			t.Fatal(err)
		}
		trs := []markov.Trajectory{user, chaffs[0]}
		dets, err := adv.PrefixDetections(trs)
		if err != nil {
			t.Fatal(err)
		}
		track, err := TrackingAccuracySeries(dets, trs, 0)
		if err != nil {
			t.Fatal(err)
		}
		if avg := TimeAverage(track); avg < 1-1e-12 {
			t.Fatalf("trial %d: advanced eavesdropper tracking %v, want 1", trial, avg)
		}
	}
}

func TestAdvancedDetectorDefeatsMO(t *testing.T) {
	c := modelChain(t, mobility.ModelSpatiallySkewed)
	rng := rng.New(3)
	mo := chaff.NewMO(c)
	adv, err := NewAdvancedDetector(c, mo.Gamma)
	if err != nil {
		t.Fatal(err)
	}
	perfect := 0
	const trials = 20
	for trial := 0; trial < trials; trial++ {
		user, _ := c.Sample(rng, 40)
		chaffs, err := mo.GenerateChaffs(rng, user, 1)
		if err != nil {
			t.Fatal(err)
		}
		trs := []markov.Trajectory{user, chaffs[0]}
		dets, err := adv.PrefixDetections(trs)
		if err != nil {
			t.Fatal(err)
		}
		track, _ := TrackingAccuracySeries(dets, trs, 0)
		if TimeAverage(track) > 0.99 {
			perfect++
		}
	}
	// The eavesdropper fails only on the measure-zero event that the user
	// looks like a chaff of the chaff (Section VI-A.3).
	if perfect < trials-1 {
		t.Fatalf("advanced eavesdropper perfect in only %d/%d trials", perfect, trials)
	}
}

func TestAdvancedDetectorSurvivors(t *testing.T) {
	c := modelChain(t, mobility.ModelNonSkewed)
	rng := rng.New(4)
	mo := chaff.NewMO(c)
	user, _ := c.Sample(rng, 25)
	chaffs, _ := mo.GenerateChaffs(rng, user, 1)
	adv, _ := NewAdvancedDetector(c, mo.Gamma)
	inc, err := adv.Survivors([]markov.Trajectory{user, chaffs[0]})
	if err != nil {
		t.Fatal(err)
	}
	if !inc[0] {
		t.Fatal("user filtered out")
	}
	if inc[1] {
		t.Fatal("deterministic chaff survived the filter")
	}
}

func TestAdvancedDetectorAllFilteredFallsBack(t *testing.T) {
	// Γ that maps every trajectory to every other one: everything gets
	// filtered, so the detector guesses uniformly over all N.
	c := modelChain(t, mobility.ModelNonSkewed)
	rng := rng.New(6)
	a, _ := c.Sample(rng, 10)
	b := a.Clone()
	gamma := func(user markov.Trajectory) (markov.Trajectory, error) {
		return user.Clone(), nil // everyone is a "chaff" of everyone equal
	}
	adv, err := NewAdvancedDetector(c, gamma)
	if err != nil {
		t.Fatal(err)
	}
	dets, err := adv.PrefixDetections([]markov.Trajectory{a, b})
	if err != nil {
		t.Fatal(err)
	}
	for slot, set := range dets {
		if len(set) != 2 {
			t.Fatalf("slot %d: fallback tie set %v, want both", slot, set)
		}
	}
}

func TestAdvancedDetectorNilGamma(t *testing.T) {
	c := modelChain(t, mobility.ModelNonSkewed)
	if _, err := NewAdvancedDetector(c, nil); err == nil {
		t.Fatal("nil gamma accepted")
	}
}

func TestArgmaxSetNegInfRows(t *testing.T) {
	set := appendArgmaxSet(nil, []float64{math.Inf(-1), math.Inf(-1)}, nil)
	if len(set) != 2 {
		t.Fatalf("all-(-Inf) tie set %v, want both indices", set)
	}
	set = appendArgmaxSet(set[:0], []float64{1, 2, 2 - 1e-12}, nil)
	if len(set) != 2 {
		t.Fatalf("near-tie set %v, want 2 entries", set)
	}
}

// BenchmarkPrefixDetection times the per-prefix ML decisions over ten
// T=100 trajectories of a 10-cell non-skewed model.
func BenchmarkPrefixDetection(b *testing.B) {
	chain, err := mobility.Build(mobility.ModelNonSkewed, rng.New(99), 10)
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(1)
	trs := make([]markov.Trajectory, 10)
	for i := range trs {
		if trs[i], err = chain.Sample(r, 100); err != nil {
			b.Fatal(err)
		}
	}
	d := NewMLDetector(chain)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.PrefixDetections(trs); err != nil {
			b.Fatal(err)
		}
	}
}
