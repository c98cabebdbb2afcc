package lash

import (
	"sort"
)

// SessionBuilder turns timestamped (user, item) events into per-user input
// sequences, the preprocessing the paper applies to the Amazon review data
// (§6.1: "we identified user sessions by grouping the reviews by user and
// sorting each so-obtained sequence by timestamp"). Events may arrive in any
// order; ties on the timestamp keep insertion order (stable sort).
type SessionBuilder struct {
	events map[string][]sessionEvent
	order  []string // user first-seen order, for deterministic output
}

type sessionEvent struct {
	ts   int64
	seq  int // insertion index, for stable ordering on timestamp ties
	item string
}

// NewSessionBuilder returns an empty session builder.
func NewSessionBuilder() *SessionBuilder {
	return &SessionBuilder{events: make(map[string][]sessionEvent)}
}

// Add records one event: user interacted with item at the given timestamp
// (any monotone integer scale — Unix seconds, milliseconds, ...).
func (s *SessionBuilder) Add(user string, timestamp int64, item string) *SessionBuilder {
	evs, ok := s.events[user]
	if !ok {
		s.order = append(s.order, user)
	}
	s.events[user] = append(evs, sessionEvent{ts: timestamp, seq: len(evs), item: item})
	return s
}

// AppendTo sorts each user's events by timestamp and appends one sequence
// per user (in user first-seen order) to the database builder.
func (s *SessionBuilder) AppendTo(db *DatabaseBuilder) {
	var items []string
	for _, user := range s.order {
		evs := s.events[user]
		sort.Slice(evs, func(i, j int) bool {
			if evs[i].ts != evs[j].ts {
				return evs[i].ts < evs[j].ts
			}
			return evs[i].seq < evs[j].seq
		})
		items = items[:0]
		for _, e := range evs {
			items = append(items, e.item)
		}
		db.AddSequence(items...)
	}
}
