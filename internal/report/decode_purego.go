//go:build !((amd64 || arm64) && !chaffmec_purego)

package report

import (
	"encoding/binary"
	"math"
)

// decodeFloats is the portable fallback for platforms whose in-memory
// float layout is not the wire's little-endian order (or any build with
// -tags chaffmec_purego): each element is decoded explicitly, exactly
// as binEncoder wrote it. The returned slice never aliases b.
func decodeFloats(b []byte, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}
