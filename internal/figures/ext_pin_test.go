package figures

import (
	"math"
	"testing"

	"chaffmec/internal/mobility"
)

// TestExtMultiuserPinnedBits pins the exact float bits of the
// multi-user cover experiment's rows at a reduced size: how the
// Monte-Carlo harness wires coexisting users may change, these bits
// may not.
func TestExtMultiuserPinnedBits(t *testing.T) {
	rows, err := ExtMultiuser(Config{Runs: 80, Horizon: 30, Cells: 10, Seed: 1}, []int{0, 3})
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		model                     mobility.ModelID
		others                    int
		unprot, withMO, collision uint64
	}{
		{mobility.ModelSpatiallySkewed, 0, 0x3ff0000000000000, 0x3fa147ae147ae147, 0x3fc57acd928cd45f},
		{mobility.ModelSpatiallySkewed, 3, 0x3fda147ae147ae15, 0x3fa69d0369d0369d, 0x3fc57acd928cd45f},
		{mobility.ModelBothSkewed, 0, 0x3ff0000000000000, 0x3fce81b4e81b4e81, 0x3fd553b832e7b9dc},
		{mobility.ModelBothSkewed, 3, 0x3fe0ce81b4e81b4e, 0x3fd5c5f92c5f92c5, 0x3fd553b832e7b9dc},
	}
	if len(rows) != len(want) {
		t.Fatalf("%d rows, want %d", len(rows), len(want))
	}
	for i, w := range want {
		r := rows[i]
		if r.Model != w.model || r.OtherUsers != w.others {
			t.Fatalf("row %d is %v with %d others, want %v with %d", i, r.Model, r.OtherUsers, w.model, w.others)
		}
		for _, f := range []struct {
			name     string
			got      float64
			wantBits uint64
		}{{"unprotected", r.Unprotected, w.unprot}, {"with MO chaff", r.WithMOChaff, w.withMO}, {"collision limit", r.CollisionLimit, w.collision}} {
			if got := math.Float64bits(f.got); got != f.wantBits {
				t.Errorf("row %d %s: %v (%#016x), want %v (%#016x)", i, f.name, f.got, got, math.Float64frombits(f.wantBits), f.wantBits)
			}
		}
	}
}
