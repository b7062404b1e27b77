// Package tune names the engine's block width: how many Monte-Carlo
// runs travel per dispatch chunk through the batch kernels. It is one
// fixed width, Block, unless the CHAFFMEC_BLOCK environment variable
// pins another for the whole process.
//
// The width never touches results: runs draw streams that are pure
// functions of (seed, run) and accumulation is run-ordered, so engine
// output is bit-identical at any chunking. Measured end to end, the
// width barely moves throughput either, which is why it is a constant
// rather than a per-host measurement.
package tune

import (
	"os"
	"strconv"
	"sync"

	"chaffmec/internal/markov"
)

// Block is the engine dispatch width every kernel shape uses unless
// CHAFFMEC_BLOCK pins another.
const Block = 16

// envBlock reads the CHAFFMEC_BLOCK pin once per process.
var envBlock = sync.OnceValue(parseEnvBlock)

// parseEnvBlock parses the CHAFFMEC_BLOCK pin: a width in [1, 256], or
// 0 (ignored) when unset or nonsense.
func parseEnvBlock() int {
	v := os.Getenv("CHAFFMEC_BLOCK")
	if v == "" {
		return 0
	}
	b, err := strconv.Atoi(v)
	if err != nil || b < 1 || b > 256 {
		return 0
	}
	return b
}

// BlockSize returns the engine dispatch width for the kernel shape
// (chain, U trajectories per run, horizon T): the CHAFFMEC_BLOCK pin if
// set, else Block. The shape does not change the answer; callers pass
// it so the call sites name what they dispatch.
func BlockSize(chain *markov.Chain, U, T int) int {
	if b := envBlock(); b > 0 {
		return b
	}
	return Block
}

// ResetForTest does nothing: BlockSize keeps no per-shape state. It
// exists only for the perfbench harness, which calls it before each
// set-up repetition.
func ResetForTest() {}
