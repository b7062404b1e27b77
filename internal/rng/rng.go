// Package rng is the repository's randomness substrate: every
// pseudo-random stream in chaffmec — Monte-Carlo runs, mobility-model
// construction, trace generation, figure drivers and tests — is derived
// through this package, so that "which stream does run r of experiment s
// draw?" has exactly one answer.
//
// # The generator
//
// Source is a splitmix64 generator (Steele, Lea & Flood, "Fast Splittable
// Pseudorandom Number Generators", OOPSLA 2014): 8 bytes of state, a
// golden-ratio Weyl increment and a three-round xor-multiply finishing
// avalanche per output. It implements math/rand.Source64, so
// rand.New(src) layers the full math/rand distribution toolkit
// (Float64, Perm, Shuffle, NormFloat64, …) on top of it. Unlike the
// default math/rand source — a ~5 KB lagged-Fibonacci table that is
// re-allocated and re-seeded at O(kB) cost per stream — a Source is
// allocation-free to reseed: Reseed replaces the 8-byte state and the
// next draw starts the new stream. The Monte-Carlo engine exploits this
// by keeping ONE Source per worker and reseeding it per run, which
// removes the dominant per-run allocation of the previous design.
//
// # Stream derivation
//
// Derive is the one seed-derivation API. It folds a base seed with a
// tuple of stream indices (run number, worker rank, strategy slot, model
// id, …) through the splitmix64 avalanche, so that
//
//   - distinct index tuples yield decorrelated child seeds even when the
//     base seed and the indices are tiny integers (0, 1, 2, …), and
//   - a derived stream depends only on (seed, indices) — never on
//     scheduling, worker count or call order.
//
// All ad-hoc arithmetic of the form seed+7, seed*1000+id or
// seed+rank*307+si predating this package has been replaced by Derive
// calls; new code must not invent its own seed arithmetic.
//
// Single-index derivations Derive(seed, r) are RESERVED for the
// Monte-Carlo engine's run streams (run r of the experiment seeded s).
// Auxiliary named streams — model construction, estimators, anything
// drawn outside the engine's per-run streams — must derive with at
// least two indices, leading with a package-level stream tag (e.g.
// mobility.StreamModel), so they can never collide with a run stream
// of the same experiment seed. Tags in use: 1 (mobility.StreamModel),
// 2 (internal/figures auxiliary streams); pick a fresh tag when adding
// a package's first named stream.
//
// # Stream-stability contract
//
// For a fixed package version, the byte stream of New(seed),
// NewStream(seed, ids…) and NewRun(seed, run) is a pure function of its
// arguments. Regression tests across the repository pin values sampled
// from these streams. The streams are NOT guaranteed stable across
// changes to this package: replacing the generator or the derivation is
// allowed, but it is a breaking change that must re-pin every stream
// regression test in the same commit (this happened once, when the
// repository moved from math/rand's lagged-Fibonacci source to
// splitmix64 — see internal/sim's regress_test.go and others_test.go).
package rng

import "math/rand"

// StreamVersion names the generator + derivation this package currently
// implements. It is recorded in serialized experiment partials
// (internal/report) so that shards produced by different builds are only
// merged when they drew from the same streams; bump it in the same
// commit as any breaking stream change (see the stream-stability
// contract above).
const StreamVersion = "splitmix64-derive/1"

// golden is 2^64/φ, the splitmix64 Weyl-sequence increment.
const golden = 0x9e3779b97f4a7c15

// mix is the splitmix64 finishing avalanche: every input bit affects
// every output bit with probability ~1/2.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Derive folds a base seed and a tuple of stream indices into a child
// seed. With no indices it avalanches the seed itself (so low-entropy
// seeds 0, 1, 2 … still start well-separated streams); each index is
// folded with a golden-ratio multiply followed by the full avalanche.
// Derive(seed, run) reproduces the engine's historical MixSeed(seed, run)
// derivation exactly.
func Derive(seed int64, ids ...int64) int64 {
	x := uint64(seed)
	if len(ids) == 0 {
		return int64(mix(x))
	}
	for _, id := range ids {
		x = mix(x ^ (uint64(id)+1)*golden)
	}
	return int64(x)
}

// Source is a reseedable splitmix64 generator implementing
// math/rand.Source64. The zero value is a valid source seeded with 0;
// construct positioned sources with NewSource or (re)position an
// existing one with Seed/Reseed. A Source is not safe for concurrent
// use; give each goroutine its own.
type Source struct {
	state uint64
}

var _ rand.Source64 = (*Source)(nil)

// NewSource returns a Source positioned at the start of seed's stream.
func NewSource(seed int64) *Source {
	s := &Source{}
	s.Seed(seed)
	return s
}

// Seed repositions the source at the start of seed's stream
// (math/rand.Source interface). The seed is avalanched first, so
// adjacent seeds start decorrelated streams.
func (s *Source) Seed(seed int64) {
	s.state = mix(uint64(seed))
}

// Reseed repositions the source at the start of the (seed, run) stream —
// the same stream NewRun(seed, run) draws — without allocating. This is
// the per-run entry point of the Monte-Carlo engine's worker loop.
//
// When the source is wrapped in a long-lived *rand.Rand, note that
// rand.Rand.Read keeps its own small byte buffer that Reseed cannot
// reset; reseeded streams are only identical to fresh NewRun streams
// for the buffer-free rand.Rand methods (Float64, Intn, Perm, …).
func (s *Source) Reseed(seed int64, run int) {
	s.state = uint64(Derive(seed, int64(run)))
}

// ReseedStream repositions the source at the start of the Derive(seed,
// ids…) stream without allocating.
func (s *Source) ReseedStream(seed int64, ids ...int64) {
	s.state = uint64(Derive(seed, ids...))
}

// Uint64 returns the next 64 random bits.
func (s *Source) Uint64() uint64 {
	s.state += golden
	return mix(s.state)
}

// Int63 returns a non-negative 63-bit value (math/rand.Source
// interface).
func (s *Source) Int63() int64 {
	return int64(s.Uint64() >> 1)
}

// New returns a *rand.Rand over a fresh Source positioned at seed's
// stream — the canonical replacement for
// rand.New(rand.NewSource(seed)) everywhere in this repository.
func New(seed int64) *rand.Rand {
	return rand.New(NewSource(seed))
}

// NewStream returns a *rand.Rand over the Derive(seed, ids…) stream:
// the named-substream constructor for call sites that need several
// decorrelated streams from one experiment seed.
func NewStream(seed int64, ids ...int64) *rand.Rand {
	s := &Source{state: uint64(Derive(seed, ids...))}
	return rand.New(s)
}

// NewRun returns a *rand.Rand over the private stream of one
// Monte-Carlo run, identical to a worker Source after
// Reseed(seed, run). Tests use it to replay a single run by hand.
func NewRun(seed int64, run int) *rand.Rand {
	return NewStream(seed, int64(run))
}
