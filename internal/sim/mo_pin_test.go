package sim

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"chaffmec/internal/chaff"
	"chaffmec/internal/engine"
	"chaffmec/internal/markov"
	"chaffmec/internal/rng"
)

// The MO pins fix the myopic online strategy's output at the paper
// protocol's shape: the spatially-skewed chain with L=10 and model seed
// 2017, T=100. They hold exact bits, so any rewrite of the Algorithm 2
// step (its candidate order, tie rule, exclusion path or γ bookkeeping)
// must reproduce them unedited.

// TestMOChaffsMatchPinnedDigest pins every cell of MO's chaff and of
// three RMO chaffs for 1024 sampled users. RMO's chaffs avoid the user's
// and the earlier chaffs' cells at random slots, which drives the
// exclusion path of the step.
func TestMOChaffsMatchPinnedDigest(t *testing.T) {
	c := ooPinChain(t)
	mo, rmo := chaff.NewMO(c), chaff.NewRMO(c)
	h := fnv.New64a()
	traj := func(tr markov.Trajectory) {
		for _, x := range tr {
			h.Write([]byte{byte(x)})
		}
	}
	r := rng.New(2017)
	coLocated := 0
	for run := 0; run < 1024; run++ {
		user, err := c.Sample(r, 100)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := mo.Gamma(user)
		if err != nil {
			t.Fatal(err)
		}
		traj(tr)
		coLocated += tr.Intersections(user)
		chaffs, err := rmo.GenerateChaffs(r, user, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, ch := range chaffs {
			traj(ch)
		}
	}
	if coLocated != 609 {
		t.Fatalf("MO co-located with the user %d times, want 609", coLocated)
	}
	if got, want := h.Sum64(), uint64(0xadb1018493090c56); got != want {
		t.Fatalf("MO/RMO chaff digest %#x, want %#x", got, want)
	}
}

// TestMOPaperProtocolMatchesPinnedBits pins the per-slot tracking
// accuracy of a 1000-run MO campaign with one chaff, as an FNV digest of
// the float64 bits of every slot, and the overall accuracy.
func TestMOPaperProtocolMatchesPinnedBits(t *testing.T) {
	c := ooPinChain(t)
	sc := Scenario{Chain: c, Strategy: chaff.NewMO(c), NumChaffs: 1, Horizon: 100}
	res, err := Run(context.Background(), sc, engine.Options{Runs: 1000, Seed: 2017, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range res.PerSlot {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	if len(res.PerSlot) != 100 {
		t.Fatalf("%d slots, want 100", len(res.PerSlot))
	}
	if got, want := h.Sum64(), uint64(0x501d9cfff6dad05); got != want {
		t.Fatalf("PerSlot digest %#x, want %#x", got, want)
	}
	if got, want := math.Float64bits(res.Overall), uint64(0x3f7b328b6d86ec1a); got != want {
		t.Fatalf("Overall = %v (bits %#x), want bits %#x", res.Overall, got, want)
	}
}
