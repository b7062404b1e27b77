//go:build race

package detect

// raceEnabled reports a -race build, whose instrumentation slows the
// kernels unevenly, so timing floors cannot hold.
const raceEnabled = true
