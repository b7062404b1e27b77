package main

import (
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"chaffmec/internal/figures"
)

// figurePinLab is the reduced trace lab the figure pin runs Figs. 8–10
// on: 297 Voronoi cells and 57 active nodes.
var figurePinLab = figures.TraceConfig{
	Seed: 3, Nodes: 70, Minutes: 60,
	TowerClusters: 6, TowersPerCluster: 30, BackgroundTowers: 120,
}

// figureCSVPins is the FNV-64a digest of every CSV each -fig step writes
// at TestFigureCSVsPinned's sizes, keyed by step id, then file name.
var figureCSVPins = map[string]map[string]uint64{
	"4":  {"fig4_steady_state.csv": 0xd61e73a13a2e812d},
	"kl": {"table_kl_skewness.csv": 0x3d5132c791373a05},
	"5": {
		"fig5_non-skewed.csv":                      0x52b60da85c5ba9e7,
		"fig5_spatially-skewed.csv":                0xa199ea11e83fc6eb,
		"fig5_spatially_and_temporally-skewed.csv": 0x5c21242dcaa566e7,
		"fig5_temporally-skewed.csv":               0x72db7a19b0cc5904,
	},
	"6": {
		"fig6_non-skewed.csv":                      0xc12f6df7d78f7496,
		"fig6_spatially-skewed.csv":                0x55156d17d080584f,
		"fig6_spatially_and_temporally-skewed.csv": 0xc0dc60c8ebbc0987,
		"fig6_temporally-skewed.csv":               0x92044be785846adb,
	},
	"7": {
		"fig7_non-skewed.csv":                      0xb55d43199fd267d1,
		"fig7_spatially-skewed.csv":                0x937ec0ea6106aa32,
		"fig7_spatially_and_temporally-skewed.csv": 0x15c655d6fae7a62d,
		"fig7_temporally-skewed.csv":               0x0f4608fb06d03ec8,
	},
	"eq11": {"eq11_im_accuracy.csv": 0xe1a13cd7b4d8108f},
	"thm":  {"theory_bounds.csv": 0xb52674e069977d90},
	"8": {
		"fig8a_layout.csv":       0x0d54a71592029ff3,
		"fig8b_steady_state.csv": 0x9aeeca3c8e47727a,
	},
	"9a":            {"fig9a_no_chaff.csv": 0xebd412fd3aef3f8c},
	"9b":            {"fig9b_single_chaff.csv": 0x91831965fee0520f},
	"10":            {"fig10_advanced.csv": 0x27c02c5cba9f573e},
	"ext-solvers":   {"ext_solvers.csv": 0x48fe2a5f02a2dbb8},
	"ext-multiuser": {"ext_multiuser.csv": 0x8f39654ca74487fb},
	"ext-cost":      {"ext_cost_privacy.csv": 0x13ea139b86521b42},
}

// fig8AvgRowKLBits pins the bits of Fig. 8's row-KL statistic, which the
// step prints but writes to no CSV.
const fig8AvgRowKLBits uint64 = 0x402aff9c66004c60 // 13.49924010041849

// TestFigureCSVsPinned runs every step of -fig all at reduced size and
// compares each CSV it writes with its pinned digest. A step without a
// pin fails, so a new figure cannot ship unpinned. The digests do not
// depend on GOMAXPROCS (CI runs this under -cpu 1,2,8).
func TestFigureCSVsPinned(t *testing.T) {
	lab, err := figures.BuildTraceLab(figurePinLab)
	if err != nil {
		t.Fatal(err)
	}
	r := &runner{
		cfg:  figures.Config{Runs: 10, Horizon: 20, Cells: 10, Seed: 1},
		topK: 2,
		seed: 1,
		grid: figures.GridOptions{Runs: 1},
		lab:  lab,
	}
	for _, s := range r.steps() {
		r.outDir = t.TempDir()
		if err := s.run(); err != nil {
			t.Fatalf("step %s: %v", s.id, err)
		}
		paths, err := filepath.Glob(filepath.Join(r.outDir, "*.csv"))
		if err != nil {
			t.Fatal(err)
		}
		want, pinned := figureCSVPins[s.id]
		if !pinned {
			t.Errorf("step %s has no pinned digests", s.id)
		}
		got := map[string]bool{}
		for _, path := range paths {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			h.Write(data)
			name := filepath.Base(path)
			got[name] = true
			if d, ok := want[name]; !ok || d != h.Sum64() {
				t.Errorf("step %s: %s digest %#016x, pinned %#016x (pinned: %v)", s.id, name, h.Sum64(), d, ok)
			}
		}
		var missing []string
		for name := range want {
			if !got[name] {
				missing = append(missing, name)
			}
		}
		sort.Strings(missing)
		for _, name := range missing {
			t.Errorf("step %s wrote no %s", s.id, name)
		}
	}

	res, err := figures.Fig8(lab)
	if err != nil {
		t.Fatal(err)
	}
	if bits := math.Float64bits(res.AvgRowKL); bits != fig8AvgRowKLBits {
		t.Errorf("Fig. 8 AvgRowKL = %v (bits %#016x), pinned bits %#016x", res.AvgRowKL, bits, fig8AvgRowKLBits)
	}
}
