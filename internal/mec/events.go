// Package mec is the mobile-edge-cloud substrate simulator: a discrete-
// time network of MECs (one per coverage cell) running one real service
// per user plus orchestrated chaff services. It reproduces exactly the
// observation channel the paper's cyber eavesdropper exploits — the
// sequence of service placement and migration events among MECs
// (Section II-B) — and accounts for the costs the paper discusses
// (migration cost, chaff budget, communication/QoS cost, Section VIII).
// Failure injection (dropped migration requests) exercises the robustness
// of the chaff controllers to an imperfect control plane.
package mec

import (
	"fmt"
	"sort"

	"chaffmec/internal/markov"
)

// CellID indexes an MEC coverage cell.
type CellID = int

// ServiceID identifies a service instance. The real service is always id
// 0; chaffs are 1..N−1.
type ServiceID int

// EventType enumerates control-plane events visible to the eavesdropper.
type EventType int

const (
	// EventPlace instantiates a service at a cell.
	EventPlace EventType = iota + 1
	// EventMigrate moves a service between cells.
	EventMigrate
	// EventMigrateFailed records a migration request dropped by the
	// control plane; the service stays at From.
	EventMigrateFailed
	// EventStop terminates a service.
	EventStop
)

// String names the event type.
func (e EventType) String() string {
	switch e {
	case EventPlace:
		return "place"
	case EventMigrate:
		return "migrate"
	case EventMigrateFailed:
		return "migrate-failed"
	case EventStop:
		return "stop"
	default:
		return fmt.Sprintf("EventType(%d)", int(e))
	}
}

// Event is one control-plane action.
type Event struct {
	Slot    int
	Type    EventType
	Service ServiceID
	// From is −1 for EventPlace.
	From CellID
	To   CellID
}

// EventLog records the control-plane history — the eavesdropper's input.
type EventLog struct {
	events []Event
}

// Append adds an event.
func (l *EventLog) Append(e Event) { l.events = append(l.events, e) }

// Len returns the number of events.
func (l *EventLog) Len() int { return len(l.events) }

// Trajectories reconstructs each service's cell per slot from the log,
// exactly as a cyber eavesdropper would: a service occupies the cell of
// its latest successful placement/migration. Services are returned in
// ascending ServiceID order. Slots before a service's placement are
// invalid; this simulator places every service at slot 0, so the
// reconstruction spans all numSlots.
func (l *EventLog) Trajectories(numSlots int) (map[ServiceID]markov.Trajectory, error) {
	if numSlots < 1 {
		return nil, fmt.Errorf("mec: numSlots %d must be >= 1", numSlots)
	}
	// Group events by service, preserving log order (slots ascend).
	byService := make(map[ServiceID][]Event)
	for _, e := range l.events {
		byService[e.Service] = append(byService[e.Service], e)
	}
	out := make(map[ServiceID]markov.Trajectory, len(byService))
	for id, evs := range byService {
		tr := make(markov.Trajectory, numSlots)
		cur := -1
		idx := 0
		stopped := false
		for slot := 0; slot < numSlots; slot++ {
			for idx < len(evs) && evs[idx].Slot == slot {
				switch evs[idx].Type {
				case EventPlace:
					cur = evs[idx].To
				case EventMigrate:
					if evs[idx].From != cur {
						return nil, fmt.Errorf("mec: service %d migrate from %d at slot %d but located at %d",
							id, evs[idx].From, slot, cur)
					}
					cur = evs[idx].To
				case EventMigrateFailed:
					// Service stays; nothing to do.
				case EventStop:
					stopped = true
				}
				idx++
			}
			if cur < 0 {
				return nil, fmt.Errorf("mec: service %d has no placement by slot %d", id, slot)
			}
			if stopped && slot < numSlots-1 {
				return nil, fmt.Errorf("mec: service %d stopped before the horizon", id)
			}
			tr[slot] = cur
		}
		out[id] = tr
	}
	return out, nil
}

// ServiceIDs returns the ids present in the log, ascending.
func (l *EventLog) ServiceIDs() []ServiceID {
	seen := make(map[ServiceID]bool)
	for _, e := range l.events {
		seen[e.Service] = true
	}
	ids := make([]ServiceID, 0, len(seen))
	for id := range seen {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
