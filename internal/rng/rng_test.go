package rng

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

// TestDeriveMatchesHistoricalMixSeed pins Derive(seed, run) to the
// engine's historical MixSeed algorithm: a golden-ratio multiply of
// (run+1) xor'd into the seed, then the splitmix64 finishing avalanche.
// Every campaign ever banked drew its runs from that derivation.
func TestDeriveMatchesHistoricalMixSeed(t *testing.T) {
	mixSeed := func(seed int64, run int) int64 {
		x := uint64(seed) ^ (uint64(run)+1)*0x9e3779b97f4a7c15
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		return int64(x)
	}
	for _, seed := range []int64{0, 1, 12345, -7} {
		for run := 0; run < 100; run++ {
			if got, want := Derive(seed, int64(run)), mixSeed(seed, run); got != want {
				t.Fatalf("Derive(%d, %d) = %d, want historical MixSeed %d", seed, run, got, want)
			}
		}
	}
}

func TestDeriveDistinctAcrossTuples(t *testing.T) {
	seen := make(map[int64][]int64)
	add := func(v int64, tuple ...int64) {
		if prev, ok := seen[v]; ok {
			t.Fatalf("derived-seed collision: %v and %v both map to %d", prev, tuple, v)
		}
		seen[v] = tuple
	}
	for seed := int64(0); seed < 4; seed++ {
		add(Derive(seed), seed)
		for a := int64(0); a < 16; a++ {
			add(Derive(seed, a), seed, a)
			for b := int64(0); b < 16; b++ {
				add(Derive(seed, a, b), seed, a, b)
			}
		}
	}
}

// TestDeriveAvalanche: adjacent run indices must flip about half of the
// 64 output bits — the property the old ad-hoc seed arithmetic
// (seed+7, seed+rank*307+si, …) lacked.
func TestDeriveAvalanche(t *testing.T) {
	total := 0
	const pairs = 2000
	for run := 0; run < pairs; run++ {
		a := uint64(Derive(7, int64(run)))
		b := uint64(Derive(7, int64(run)+1))
		total += bits.OnesCount64(a ^ b)
	}
	avg := float64(total) / pairs
	if avg < 28 || avg > 36 {
		t.Fatalf("adjacent streams differ in %.1f bits on average, want ≈ 32", avg)
	}
}

func TestReseedMatchesNewRun(t *testing.T) {
	src := NewSource(0)
	r := rand.New(src)
	for run := 0; run < 20; run++ {
		src.Reseed(99, run)
		fresh := NewRun(99, run)
		for i := 0; i < 50; i++ {
			if got, want := r.Float64(), fresh.Float64(); got != want {
				t.Fatalf("run %d draw %d: reseeded worker stream %v != NewRun stream %v", run, i, got, want)
			}
		}
	}
}

func TestReseedStreamMatchesNewStream(t *testing.T) {
	src := NewSource(0)
	r := rand.New(src)
	src.ReseedStream(5, 3, 1)
	fresh := NewStream(5, 3, 1)
	for i := 0; i < 50; i++ {
		if got, want := r.Uint64(), fresh.Uint64(); got != want {
			t.Fatalf("draw %d: %v != %v", i, got, want)
		}
	}
}

func TestNewIsDeterministicAndSeedSensitive(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
	c, d := New(0), New(1)
	same := 0
	for i := 0; i < 100; i++ {
		if c.Uint64() == d.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("adjacent seeds collided on %d of 100 draws", same)
	}
}

// TestSourceUniformity is a coarse distribution check: Float64 over the
// wrapped source must fill [0,1) evenly enough for Monte-Carlo use.
func TestSourceUniformity(t *testing.T) {
	r := New(1)
	const n, buckets = 200000, 16
	var counts [buckets]int
	for i := 0; i < n; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v outside [0,1)", v)
		}
		counts[int(v*buckets)]++
	}
	want := float64(n) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("bucket %d has %d draws, want ≈ %.0f", b, c, want)
		}
	}
}

func TestZeroValueSourceUsable(t *testing.T) {
	var s Source
	r := rand.New(&s)
	if v := r.Float64(); v < 0 || v >= 1 {
		t.Fatalf("zero-value source drew %v", v)
	}
}

func TestInt63NonNegative(t *testing.T) {
	s := NewSource(-12345)
	for i := 0; i < 1000; i++ {
		if v := s.Int63(); v < 0 {
			t.Fatalf("Int63 = %d < 0", v)
		}
	}
}
