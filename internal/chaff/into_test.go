package chaff

import (
	"math/rand"
	"testing"

	"chaffmec/internal/markov"
	"chaffmec/internal/mobility"
	"chaffmec/internal/rng"
)

// TestGenerateIntoMatchesGenerateChaffs is the batch-path differential
// test for every registered strategy: GenerateInto must produce the same
// chaffs AND leave the rng stream in the same position as GenerateChaffs,
// whether the strategy implements BlockGenerator or takes the fallback.
func TestGenerateIntoMatchesGenerateChaffs(t *testing.T) {
	c := modelChain(t, mobility.ModelNonSkewed)
	const T, numChaffs, seed = 40, 3, 11
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			sRef, err := NewByName(name, c)
			if err != nil {
				t.Fatal(err)
			}
			sInto, err := NewByName(name, c)
			if err != nil {
				t.Fatal(err)
			}
			user, err := c.Sample(rng.New(seed), T)
			if err != nil {
				t.Fatal(err)
			}
			refRNG, intoRNG := rng.NewStream(seed, 1), rng.NewStream(seed, 1)
			want, err := sRef.GenerateChaffs(refRNG, user, numChaffs)
			if err != nil {
				t.Fatalf("GenerateChaffs: %v", err)
			}
			// Undersized, oversized and nil buffers must all work.
			dst := make([]markov.Trajectory, numChaffs)
			dst[0] = make(markov.Trajectory, T/2)
			dst[1] = make(markov.Trajectory, 2*T)
			if err := GenerateInto(sInto, intoRNG, user, dst); err != nil {
				t.Fatalf("GenerateInto: %v", err)
			}
			for i := range want {
				if !dst[i].Equal(want[i]) {
					t.Fatalf("chaff %d differs:\ninto %v\nref  %v", i, dst[i], want[i])
				}
			}
			if a, b := refRNG.Float64(), intoRNG.Float64(); a != b {
				t.Fatalf("rng streams diverged after generation: ref %v, into %v", a, b)
			}
		})
	}
}

// TestGenerateIntoReuse drives GenerateInto repeatedly through one buffer
// set — the per-worker reuse pattern — and checks results stay correct
// and (for the deterministic strategies) the buffers are not reallocated.
func TestGenerateIntoReuse(t *testing.T) {
	c := modelChain(t, mobility.ModelNonSkewed)
	const T, numChaffs = 30, 2
	for _, name := range []string{"IM", "ML", "CML", "MO", "OO"} {
		t.Run(name, func(t *testing.T) {
			s, err := NewByName(name, c)
			if err != nil {
				t.Fatal(err)
			}
			dst := make([]markov.Trajectory, numChaffs)
			for i := range dst {
				dst[i] = make(markov.Trajectory, T)
			}
			for round := 0; round < 3; round++ {
				r := rng.New(int64(round))
				user, err := c.Sample(r, T)
				if err != nil {
					t.Fatal(err)
				}
				if err := GenerateInto(s, r, user, dst); err != nil {
					t.Fatal(err)
				}
				want, err := s.GenerateChaffs(restream(t, c, int64(round), T), user, numChaffs)
				if err != nil {
					t.Fatal(err)
				}
				for i := range want {
					if !dst[i].Equal(want[i]) {
						t.Fatalf("round %d chaff %d differs", round, i)
					}
				}
			}
		})
	}
}

// restream replays the user-sampling prefix of a round's stream so the
// reference GenerateChaffs call sees the same rng position GenerateInto
// did.
func restream(t *testing.T, c *markov.Chain, seed int64, T int) *rand.Rand {
	t.Helper()
	r := rng.New(seed)
	if _, err := c.Sample(r, T); err != nil {
		t.Fatal(err)
	}
	return r
}

// failSource is a rand.Source that fails the test on any draw.
type failSource struct {
	t    *testing.T
	name string
}

func (s failSource) Int63() int64 {
	s.t.Fatalf("%s drew from the run stream", s.name)
	return 0
}

func (s failSource) Seed(int64) { s.t.Fatalf("%s reseeded the run stream", s.name) }

// countSource counts the draws of a seeded source.
type countSource struct {
	rand.Source
	draws int
}

func (s *countSource) Int63() int64 {
	s.draws++
	return s.Source.Int63()
}

// TestSelfGammaPremise checks the premise the advanced single kind
// builds on when it takes a strategy as its own Γ: every registered
// TrajectoryMapper fills every chaff of GenerateInto with exactly
// Gamma(user) and draws nothing from the run stream. The randomised
// strategies, whose chaffs are not Γ(user), must draw, and every
// registered strategy is one or the other.
func TestSelfGammaPremise(t *testing.T) {
	const T, numChaffs = 40, 3
	drawers := map[string]bool{"IM": true, "RML": true, "ROO": true, "RMO": true, "Rollout": true}
	for _, id := range []mobility.ModelID{mobility.ModelNonSkewed, mobility.ModelSpatiallySkewed} {
		c := modelChain(t, id)
		for _, name := range Names() {
			s, err := NewByName(name, c)
			if err != nil {
				t.Fatal(err)
			}
			m, mapper := s.(TrajectoryMapper)
			if mapper && drawers[name] {
				t.Fatalf("%s is a TrajectoryMapper but its chaffs are randomised", name)
			}
			for seed := int64(0); seed < 3; seed++ {
				user, err := c.Sample(rng.New(seed), T)
				if err != nil {
					t.Fatal(err)
				}
				dst := make([]markov.Trajectory, numChaffs)
				switch {
				case mapper:
					if err := GenerateInto(s, rand.New(failSource{t, name}), user, dst); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					want, err := m.Gamma(user)
					if err != nil {
						t.Fatalf("%s: Γ: %v", name, err)
					}
					for i, ch := range dst {
						if !ch.Equal(want) {
							t.Fatalf("%s: chaff %d is not Γ(user)\nchaff %v\nΓ     %v", name, i, ch, want)
						}
					}
				case drawers[name]:
					src := &countSource{Source: rng.New(seed)}
					if err := GenerateInto(s, rand.New(src), user, dst); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if src.draws == 0 {
						t.Fatalf("%s generated chaffs without drawing from the run stream", name)
					}
				default:
					t.Fatalf("%s is neither a TrajectoryMapper nor a randomised strategy", name)
				}
			}
		}
	}
}
