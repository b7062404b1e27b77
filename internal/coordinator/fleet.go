package coordinator

import "fmt"

// Member is one worker in a Fleet: a dispatchable Transport plus the
// scheduling metadata the coordinator plans with. Weight drives the
// weighted shard split — a weight-2 member is handed about twice the
// runs of a weight-1 member each round (any split merges bit-identically,
// so weights only move load, never results).
type Member struct {
	// ID identifies the worker across fleet snapshots: the coordinator
	// tracks join/leave/failure state per ID, so a member that
	// disappears and re-registers under a new ID is a fresh worker.
	ID string
	// Weight is the member's relative capacity (<=0 is treated as 1).
	Weight float64
	// Transport dispatches shard jobs to the worker.
	Transport Transport
}

// Fleet is the dispatcher's view of the workers: a possibly changing
// membership list. The static implementations freeze a slice; the
// Registry implementation grows and shrinks as persistent workers
// register, heartbeat and get evicted mid-campaign.
type Fleet interface {
	// Members returns the current membership snapshot.
	Members() []Member
	// Updates returns a channel that receives (coalesced) notifications
	// when the membership may have changed. A nil channel marks a fleet
	// that never changes: the dispatcher then treats worker exhaustion
	// as fatal instead of waiting for a join.
	Updates() <-chan struct{}
}

// StaticFleet is the frozen-membership Fleet: the workers it was built
// with, forever.
type StaticFleet struct {
	members []Member
}

// Static freezes an explicit member list into a Fleet. Members without
// an ID get one derived from their transport's name; duplicate IDs are
// disambiguated by position so per-worker bookkeeping stays separable.
func Static(members ...Member) *StaticFleet {
	f := &StaticFleet{members: make([]Member, 0, len(members))}
	seen := map[string]int{}
	for _, m := range members {
		if m.ID == "" && m.Transport != nil {
			m.ID = m.Transport.Name()
		}
		if m.Weight <= 0 {
			m.Weight = 1
		}
		seen[m.ID]++
		if n := seen[m.ID]; n > 1 {
			m.ID = fmt.Sprintf("%s#%d", m.ID, n)
		}
		f.members = append(f.members, m)
	}
	return f
}

// StaticOf freezes a transport list into a Fleet of weight-1 members.
func StaticOf(ts ...Transport) *StaticFleet {
	members := make([]Member, 0, len(ts))
	for _, t := range ts {
		members = append(members, Member{Transport: t})
	}
	return Static(members...)
}

// Members implements Fleet.
func (f *StaticFleet) Members() []Member {
	out := make([]Member, len(f.members))
	copy(out, f.members)
	return out
}

// Updates implements Fleet: a static fleet never changes, so the
// channel is nil (it blocks forever in a select).
func (f *StaticFleet) Updates() <-chan struct{} { return nil }
