package tune

import (
	"testing"

	"chaffmec/internal/markov"
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

// TestBlockSizeIsConstant: every shape — nil chain, degenerate geometry
// or a real kernel shape — gets the one width (the process's
// CHAFFMEC_BLOCK pin when set, else Block).
func TestBlockSizeIsConstant(t *testing.T) {
	want := Block
	if b := envBlock(); b > 0 {
		want = b
	}
	c := testChain(t)
	for _, tc := range []struct {
		name  string
		chain *markov.Chain
		U, T  int
	}{
		{"nil chain", nil, 4, 50},
		{"U=0", c, 0, 50},
		{"T=1", c, 4, 1},
		{"real shape", c, 4, 50},
		{"trace shape", c, 155, 100},
	} {
		if got := BlockSize(tc.chain, tc.U, tc.T); got != want {
			t.Fatalf("%s: BlockSize = %d, want %d", tc.name, got, want)
		}
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
