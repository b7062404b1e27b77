package chaff

import (
	"testing"

	"chaffmec/internal/markov"
	"chaffmec/internal/mobility"
	"chaffmec/internal/rng"
)

// paperUsers returns the paper protocol's chain (spatially skewed, L=10,
// model seed 2017) and 16 users sampled from it at T=100.
func paperUsers(tb testing.TB) (*markov.Chain, []markov.Trajectory) {
	tb.Helper()
	c, err := mobility.Build(mobility.ModelSpatiallySkewed, rng.New(2017), 10)
	if err != nil {
		tb.Fatal(err)
	}
	r := rng.New(3)
	users := make([]markov.Trajectory, 16)
	for i := range users {
		if users[i], err = c.Sample(r, 100); err != nil {
			tb.Fatal(err)
		}
	}
	return c, users
}

// TestMOGenerateAllocs pins MO's chaff generation on a warm chain to
// zero allocations: the step reads log π and the ranked tables from the
// chain's shared storage and designs into the caller's buffers.
func TestMOGenerateAllocs(t *testing.T) {
	c, users := paperUsers(t)
	s := NewMO(c)
	dst := make([]markov.Trajectory, 2)
	i := 0
	generate := func() {
		if err := s.GenerateChaffsInto(nil, users[i%len(users)], dst); err != nil {
			t.Fatal(err)
		}
		i++
	}
	generate() // warm the chain's tables and grow dst
	if allocs := testing.AllocsPerRun(50, generate); allocs != 0 {
		t.Fatalf("a warm MO.GenerateChaffsInto allocates %v times, want 0", allocs)
	}
}

// BenchmarkMOGamma times MO's Γ(user) into a reused buffer at the paper
// protocol's shape (L=10, T=100, one chaff), as a campaign run makes it.
func BenchmarkMOGamma(b *testing.B) {
	c, users := paperUsers(b)
	s := NewMO(c)
	dst := make([]markov.Trajectory, 1)
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		if err := s.GenerateChaffsInto(nil, users[i%len(users)], dst); err != nil {
			b.Fatal(err)
		}
		i++
	}
}

// BenchmarkRMOGenerate times RMO's two chaffs at the paper protocol's
// shape (L=10, T=100): the MO step on its exclusion path.
func BenchmarkRMOGenerate(b *testing.B) {
	c, users := paperUsers(b)
	s := NewRMO(c)
	r := rng.New(5)
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		if _, err := s.GenerateChaffs(r, users[i%len(users)], 2); err != nil {
			b.Fatal(err)
		}
		i++
	}
}

// BenchmarkROOGenerate times ROO's two chaffs at the paper protocol's
// shape (L=10, T=100). Each chaff is a fresh OO over its own exclusion
// set, so each builds its own Viterbi snapshot.
func BenchmarkROOGenerate(b *testing.B) {
	c, users := paperUsers(b)
	s := NewROO(c)
	r := rng.New(5)
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		if _, err := s.GenerateChaffs(r, users[i%len(users)], 2); err != nil {
			b.Fatal(err)
		}
		i++
	}
}
