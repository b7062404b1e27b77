//go:build !race

package chaff

const raceEnabled = false
