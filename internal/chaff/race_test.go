//go:build race

package chaff

// raceEnabled reports a -race build, where sync.Pool drops a share of
// its Puts on purpose, so pooled-workspace allocation pins cannot hold.
const raceEnabled = true
