package sched

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
)

// Schedule is an earliest-feasible time assignment for every event in a
// document, the solver's primary output.
type Schedule struct {
	graph *Graph
	times []time.Duration
	// Dropped lists the May arcs relaxed away to achieve feasibility.
	Dropped []ArcRef
}

// Graph returns the constraint graph the schedule was computed from.
func (s *Schedule) Graph() *Graph { return s.graph }

// TimeOf returns the scheduled time of an event id. An event the schedule
// has no time for — one a later Solver.Reschedule added to the shared
// graph — reads as zero.
func (s *Schedule) TimeOf(id EventID) time.Duration {
	if int(id) >= len(s.times) {
		return 0
	}
	return s.times[id]
}

// Times returns the raw assignment indexed by EventID. Shared; do not
// mutate.
func (s *Schedule) Times() []time.Duration { return s.times }

// StartOf returns the scheduled begin time of node n.
func (s *Schedule) StartOf(n *core.Node) time.Duration {
	return s.TimeOf(s.graph.Begin(n))
}

// EndOf returns the scheduled end time of node n.
func (s *Schedule) EndOf(n *core.Node) time.Duration {
	return s.TimeOf(s.graph.End(n))
}

// LengthOf returns the scheduled extent of node n.
func (s *Schedule) LengthOf(n *core.Node) time.Duration {
	return s.EndOf(n) - s.StartOf(n)
}

// Makespan returns the time of the latest event: the document's total
// presentation length.
func (s *Schedule) Makespan() time.Duration {
	var max time.Duration
	for _, t := range s.times {
		if t > max {
			max = t
		}
	}
	return max
}

// StretchOf reports how far a leaf was stretched beyond its intrinsic
// duration to satisfy synchronization constraints — the solver's version of
// the paper's "freeze-frame video operation" (section 5.3.4) or "stretch
// function" (section 5.3.3). It returns zero for composites and for leaves
// with no known duration. A nil durationOf means the duration source the
// graph was built with (Options.DurationOf, else the document's).
func (s *Schedule) StretchOf(n *core.Node, durationOf func(*core.Node) (time.Duration, bool)) time.Duration {
	if !n.Type.IsLeaf() {
		return 0
	}
	if durationOf == nil {
		durationOf = s.graph.leafDuration
	}
	intrinsic, ok := durationOf(n)
	if !ok {
		return 0
	}
	if got := s.LengthOf(n); got > intrinsic {
		return got - intrinsic
	}
	return 0
}

// Slot is one leaf occurrence on a channel timeline.
type Slot struct {
	Node  *core.Node
	Start time.Duration
	End   time.Duration
}

// ChannelTimeline groups the document's leaf events per channel, ordered by
// start time. It is the data behind the Figure 3 / Figure 10 channel views.
func (s *Schedule) ChannelTimeline() map[string][]Slot {
	out := make(map[string][]Slot)
	s.graph.doc.Root.Walk(func(n *core.Node) bool {
		if !n.Type.IsLeaf() {
			return true
		}
		name := "(unassigned)"
		if r := s.graph.Resolved(n); r.Channel != nil {
			name = r.Channel.Name
		}
		out[name] = append(out[name], Slot{
			Node:  n,
			Start: s.StartOf(n),
			End:   s.EndOf(n),
		})
		return true
	})
	for name := range out {
		slices.SortStableFunc(out[name], func(a, b Slot) int {
			return cmp.Or(cmp.Compare(a.Start, b.Start), cmp.Compare(a.End, b.End))
		})
	}
	return out
}

// Overlap reports two leaf events scheduled concurrently on one channel.
// "Events that are placed on a single channel are synchronized in linear
// time order" (section 3.1) — an overlap means the document maps two
// simultaneous events onto one resource, which a presentation environment
// cannot honour.
type Overlap struct {
	Channel string
	A, B    Slot
}

func (o Overlap) String() string {
	return fmt.Sprintf("channel %q: %s [%v,%v) overlaps %s [%v,%v)",
		o.Channel, o.A.Node.PathString(), o.A.Start, o.A.End,
		o.B.Node.PathString(), o.B.Start, o.B.End)
}

// ChannelConflicts returns every pairwise overlap of leaf events sharing a
// channel. Zero-length events never overlap.
func (s *Schedule) ChannelConflicts() []Overlap {
	var out []Overlap
	for name, slots := range s.ChannelTimeline() {
		for i := 1; i < len(slots); i++ {
			prev, cur := slots[i-1], slots[i]
			if cur.Start < prev.End && cur.End > cur.Start && prev.End > prev.Start {
				out = append(out, Overlap{Channel: name, A: prev, B: cur})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Channel != out[j].Channel {
			return out[i].Channel < out[j].Channel
		}
		return out[i].A.Start < out[j].A.Start
	})
	return out
}

// String renders a compact event table, earliest-first.
func (s *Schedule) String() string {
	type row struct {
		t  time.Duration
		ev Event
	}
	rows := make([]row, len(s.times))
	for i, t := range s.times {
		rows[i] = row{t: t, ev: s.graph.events[i]}
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].t < rows[j].t })
	var b strings.Builder
	fmt.Fprintf(&b, "schedule (makespan %v", s.Makespan())
	if len(s.Dropped) > 0 {
		fmt.Fprintf(&b, ", %d may-arcs dropped", len(s.Dropped))
	}
	b.WriteString(")\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %10v  %s\n", r.t, r.ev)
	}
	return b.String()
}
