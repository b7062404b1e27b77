package tune

import (
	"encoding/json"
	"testing"

	"chaffmec/internal/markov"
	"chaffmec/internal/store"
)

func testChain(t *testing.T) *markov.Chain {
	t.Helper()
	return markov.MustNew([][]float64{
		{0.25, 0.25, 0.25, 0.25},
		{0.1, 0.2, 0.3, 0.4},
		{0.4, 0.3, 0.2, 0.1},
		{0.5, 0, 0.5, 0},
	})
}

func TestBlockSizeReturnsCandidate(t *testing.T) {
	ResetForTest()
	c := testChain(t)
	b := BlockSize(c, 4, 50)
	if !validWidth(b) {
		t.Fatalf("BlockSize = %d, not a candidate width %v", b, Candidates)
	}
}

func TestBlockSizeCachedInProcess(t *testing.T) {
	ResetForTest()
	c := testChain(t)
	first := BlockSize(c, 3, 40)
	for i := 0; i < 5; i++ {
		if got := BlockSize(c, 3, 40); got != first {
			t.Fatalf("cached BlockSize changed: %d then %d", first, got)
		}
	}
}

func TestBlockSizeDegenerateShapes(t *testing.T) {
	ResetForTest()
	c := testChain(t)
	if got := BlockSize(nil, 4, 50); got != DefaultBlockSize {
		t.Fatalf("nil chain: %d, want default %d", got, DefaultBlockSize)
	}
	if got := BlockSize(c, 0, 50); got != DefaultBlockSize {
		t.Fatalf("U=0: %d, want default %d", got, DefaultBlockSize)
	}
	if got := BlockSize(c, 4, 1); got != DefaultBlockSize {
		t.Fatalf("T=1: %d, want default %d", got, DefaultBlockSize)
	}
}

func TestEnvPinOverrides(t *testing.T) {
	// envBlock is computed once per process, so pin via the cache-free
	// parse path: set the variable and verify through a fresh read.
	t.Setenv("CHAFFMEC_BLOCK", "48")
	if got := parseEnvBlock(); got != 48 {
		t.Fatalf("CHAFFMEC_BLOCK=48 parsed as %d", got)
	}
	t.Setenv("CHAFFMEC_BLOCK", "0")
	if got := parseEnvBlock(); got != 0 {
		t.Fatalf("CHAFFMEC_BLOCK=0 parsed as %d, want 0 (ignored)", got)
	}
	t.Setenv("CHAFFMEC_BLOCK", "9999")
	if got := parseEnvBlock(); got != 0 {
		t.Fatalf("CHAFFMEC_BLOCK=9999 parsed as %d, want 0 (ignored)", got)
	}
	t.Setenv("CHAFFMEC_BLOCK", "nonsense")
	if got := parseEnvBlock(); got != 0 {
		t.Fatalf("CHAFFMEC_BLOCK=nonsense parsed as %d, want 0 (ignored)", got)
	}
}

// TestStoreRoundTrip proves a second process-equivalent lookup (fresh
// in-process cache, same store) reuses the persisted calibration
// instead of re-measuring, and that a corrupt blob is evicted and
// re-measured.
func TestStoreRoundTrip(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	old := store.Default()
	store.SetDefault(st)
	defer store.SetDefault(old)

	ResetForTest()
	c := testChain(t)
	first := BlockSize(c, 4, 30)

	key := storeKey(c.NumStates(), 4, 30)
	blob, ok, err := st.Get(storeKind, key)
	if err != nil || !ok {
		t.Fatalf("calibration not persisted: ok=%v err=%v", ok, err)
	}
	var persisted storedCalib
	if err := json.Unmarshal(blob, &persisted); err != nil {
		t.Fatalf("persisted calibration does not decode: %v", err)
	}
	if persisted.BlockSize != first {
		t.Fatalf("persisted %d, returned %d", persisted.BlockSize, first)
	}

	// Fresh in-process cache: the store must satisfy the lookup. Plant a
	// distinctive (valid) width to prove the value comes from the store.
	planted := storedCalib{BlockSize: 32}
	if persisted.BlockSize == 32 {
		planted.BlockSize = 128
	}
	pb, _ := json.Marshal(planted)
	if err := st.Put(storeKind, key, pb); err != nil {
		t.Fatal(err)
	}
	ResetForTest()
	if got := BlockSize(c, 4, 30); got != planted.BlockSize {
		t.Fatalf("store lookup returned %d, want planted %d", got, planted.BlockSize)
	}

	// Corrupt blob: evicted, re-measured, re-persisted.
	if err := st.Put(storeKind, key, []byte("not json")); err != nil {
		t.Fatal(err)
	}
	ResetForTest()
	if got := BlockSize(c, 4, 30); !validWidth(got) {
		t.Fatalf("corrupt-store remeasure returned %d", got)
	}
	if blob, ok, _ := st.Get(storeKind, key); !ok || !json.Valid(blob) {
		t.Fatal("corrupt calibration was not replaced")
	}
}

func TestPickPrefersFastestThenSmallest(t *testing.T) {
	got := pick([]float64{3.0, 2.0, 2.0, 2.5})
	if got != 32 {
		t.Fatalf("pick = %d, want 32 (fastest, ties to smaller)", got)
	}
	if got := pick(nil); got != DefaultBlockSize {
		t.Fatalf("pick(nil) = %d, want default", got)
	}
	if got := pick([]float64{0, 0}); got != DefaultBlockSize {
		t.Fatalf("pick(all-zero) = %d, want default", got)
	}
}
