// Package player implements the Document Viewing stage of the
// CWI/Multimedia Pipeline as a deterministic discrete-event playback
// simulator. It stands in for physical playout devices, which this
// reproduction does not have: virtual channels consume leaf events under an
// injectable latency model, and the Must/May semantics of section 5.3.2
// decide what happens when a device cannot honour a window:
//
//   - Must arcs are enforced "even at the expense of overall system
//     performance": other events are delayed (stalled, freeze-framed) to
//     keep the relationship.
//   - May arcs are "desirable but not essential": when a latency makes one
//     unsatisfiable, it is dropped and recorded, and playback proceeds.
//
// Mechanically, playback is a perturbation of a plan's solve, not of its
// graph. PlaySchedule takes the schedule the viewer already holds and
// re-solves the plan's own constraint system from the plan's times
// (sched.SolveFrom) instead of planning again, passing beside it one
// runtime lower bound per delayed leaf and the Must arcs it had to give
// up; the May arcs the plan dropped stay dropped. The plan's graph is only
// read, so any number of plays of one plan may run at once. This makes the
// simulation exact and keeps it honest: the trace is the earliest feasible
// execution of the perturbed plan, drift and lateness are measured against
// the plan the run actually followed, and every residual constraint
// violation is a genuine Must failure. Play is the form for callers with
// only a graph: the package's one cold solve, then PlaySchedule. A seek
// (AnalyzeSeek) is analyzed, not played.
package player

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/sched"
)

// JitterModel produces the start-up latency a channel device adds to a leaf
// event. Deterministic models keep experiments reproducible.
type JitterModel func(n *core.Node, channel string) time.Duration

// NoJitter is the ideal-device model.
func NoJitter(*core.Node, string) time.Duration { return 0 }

// UniformJitter returns a deterministic pseudo-random latency in [0, max)
// derived from the node path, the channel name and the seed.
func UniformJitter(seed uint64, max time.Duration) JitterModel {
	if max <= 0 {
		return NoJitter
	}
	return func(n *core.Node, channel string) time.Duration {
		h := seed ^ 0xcbf29ce484222325
		var buf [64]byte
		for _, c := range n.AppendPath(buf[:0]) {
			h = (h ^ uint64(c)) * 0x100000001b3
		}
		for _, c := range []byte(channel) {
			h = (h ^ uint64(c)) * 0x100000001b3
		}
		h ^= h >> 33
		return time.Duration(h % uint64(max))
	}
}

// ChannelJitter applies a fixed latency to every event of one channel —
// e.g. a slow image decoder on the graphic channel.
func ChannelJitter(channel string, latency time.Duration) JitterModel {
	return func(_ *core.Node, ch string) time.Duration {
		if ch == channel {
			return latency
		}
		return 0
	}
}

// Options configures a playback run.
type Options struct {
	// Jitter is the device latency model; nil means ideal devices.
	Jitter JitterModel
	// Relax permits dropping May arcs to absorb latencies. It governs only
	// drops beyond the plan's: PlaySchedule keeps the arcs its plan dropped
	// whatever Relax says. (Play also plans with it.)
	Relax bool
}

// ActionKind classifies trace entries.
type ActionKind int

const (
	// ActionStart is a leaf event starting on its channel.
	ActionStart ActionKind = iota
	// ActionEnd is a leaf event completing.
	ActionEnd
	// ActionFreeze marks a leaf held beyond its intrinsic duration
	// (freeze-frame / stretch).
	ActionFreeze
	// ActionLate marks a leaf that started after its planned time.
	ActionLate
)

func (a ActionKind) String() string {
	switch a {
	case ActionStart:
		return "start"
	case ActionEnd:
		return "end"
	case ActionFreeze:
		return "freeze"
	case ActionLate:
		return "late"
	default:
		return fmt.Sprintf("action(%d)", int(a))
	}
}

// TraceEntry is one observable playback action.
type TraceEntry struct {
	At      time.Duration
	Channel string
	Node    *core.Node
	Action  ActionKind
	// Detail carries action-specific quantities (lateness, freeze length).
	Detail time.Duration
}

func (e TraceEntry) String() string {
	s := fmt.Sprintf("%10v  %-10s %-7s %s", e.At, e.Channel, e.Action, e.Node.PathString())
	if e.Detail != 0 {
		s += fmt.Sprintf(" (%v)", e.Detail)
	}
	return s
}

// Result is the outcome of a playback run.
type Result struct {
	// Actual holds the realized event times, indexed by sched.EventID.
	Actual []time.Duration
	// Trace lists observable actions in time order.
	Trace []TraceEntry
	// DroppedMay lists the May arcs not honoured: the plan's dropped arcs,
	// then those sacrificed to absorb latencies, each once.
	DroppedMay []sched.ArcRef
	// MustViolations lists Must arcs that no amount of stalling could
	// satisfy; a correct environment refuses to claim success here.
	MustViolations []sched.ArcRef
	// MaxDrift is the largest |actual − planned| over all events.
	MaxDrift time.Duration
	// TotalStretch sums freeze-frame time over all leaves.
	TotalStretch time.Duration
	// FinishedAt is the realized makespan.
	FinishedAt time.Duration
}

// Success reports whether every Must relationship was honoured.
func (r *Result) Success() bool { return len(r.MustViolations) == 0 }

// Play plans g and plays the plan: the convenience form for callers with
// no schedule in hand. The graph must have been built with stretchable
// leaves for freeze-frame semantics.
func Play(g *sched.Graph, opts Options) (*Result, error) {
	planned, err := g.Solve(sched.SolveOptions{Relax: opts.Relax})
	if err != nil {
		return nil, fmt.Errorf("player: planning failed: %w", err)
	}
	return PlaySchedule(planned, opts)
}

// leafChannel is one leaf with its channel name, resolved once per run.
type leafChannel struct {
	node    *core.Node
	channel string
}

// PlaySchedule simulates presenting planned under the given options: the
// run is the plan's own constraint system — the arcs it dropped stay
// dropped — plus one lower bound per leaf the jitter model delays.
func PlaySchedule(planned *sched.Schedule, opts Options) (*Result, error) {
	jitter := opts.Jitter
	if jitter == nil {
		jitter = NoJitter
	}

	g := planned.Graph()
	if len(planned.Times()) != g.NumEvents() {
		return nil, errors.New("player: the plan predates insertions into its graph; reschedule it first")
	}
	doc := g.Doc()
	rootBegin := g.Begin(doc.Root)
	var leaves []leafChannel
	var bounds []sched.Constraint
	doc.Root.Walk(func(n *core.Node) bool {
		if !n.Type.IsLeaf() {
			return true
		}
		ch := "(unassigned)" // traces stay complete
		if r := g.Resolved(n); r.Channel != nil {
			ch = r.Channel.Name
		}
		leaves = append(leaves, leafChannel{n, ch})
		if lat := jitter(n, ch); lat > 0 {
			bounds = append(bounds, sched.RuntimeLower(rootBegin, g.Begin(n), planned.StartOf(n)+lat, func() string {
				return fmt.Sprintf("device latency %v on %s", lat, n.PathString())
			}))
		}
		return true
	})

	// Re-solve from the plan with latencies. May arcs absorb what they can;
	// residual conflicts are Must failures, dropped one at a time and
	// recorded.
	var violations []sched.ArcRef
	var actual *sched.Schedule
	for {
		s, err := g.SolveFrom(planned, bounds, violations, sched.SolveOptions{Relax: opts.Relax})
		if err == nil {
			actual = s
			break
		}
		var ce *sched.ConflictError
		if !errors.As(err, &ce) {
			return nil, err
		}
		musts := ce.MustArcs()
		if len(musts) == 0 {
			return nil, fmt.Errorf("player: irreducible conflict: %w", ce)
		}
		violations = append(violations, musts[0])
	}

	res := &Result{
		Actual:         actual.Times(),
		DroppedMay:     actual.Dropped,
		MustViolations: violations,
	}
	res.buildTrace(leaves, planned, actual)
	return res, nil
}

// buildTrace derives observable actions from planned vs actual times.
func (res *Result) buildTrace(leaves []leafChannel, planned, actual *sched.Schedule) {
	for i := range res.Actual {
		if d := res.Actual[i] - planned.TimeOf(sched.EventID(i)); abs(d) > res.MaxDrift {
			res.MaxDrift = abs(d)
		}
		if res.Actual[i] > res.FinishedAt {
			res.FinishedAt = res.Actual[i]
		}
	}
	res.Trace = make([]TraceEntry, 0, 4*len(leaves)) // start, late, freeze, end
	for _, l := range leaves {
		n, ch := l.node, l.channel
		start, end := actual.StartOf(n), actual.EndOf(n)
		res.Trace = append(res.Trace, TraceEntry{At: start, Channel: ch, Node: n, Action: ActionStart})
		if late := start - planned.StartOf(n); late > 0 {
			res.Trace = append(res.Trace, TraceEntry{
				At: start, Channel: ch, Node: n, Action: ActionLate, Detail: late})
		}
		if stretch := actual.StretchOf(n, nil); stretch > 0 {
			res.Trace = append(res.Trace, TraceEntry{
				At: end - stretch, Channel: ch, Node: n, Action: ActionFreeze, Detail: stretch})
			res.TotalStretch += stretch
		}
		res.Trace = append(res.Trace, TraceEntry{At: end, Channel: ch, Node: n, Action: ActionEnd})
	}
	slices.SortStableFunc(res.Trace, func(a, b TraceEntry) int {
		if a.At != b.At {
			return cmp.Compare(a.At, b.At)
		}
		return strings.Compare(a.Channel, b.Channel)
	})
}

func abs(d time.Duration) time.Duration {
	if d < 0 {
		return -d
	}
	return d
}

// String renders the trace.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "playback (finished %v, drift %v, stretch %v", r.FinishedAt, r.MaxDrift, r.TotalStretch)
	if len(r.DroppedMay) > 0 {
		fmt.Fprintf(&b, ", %d may dropped", len(r.DroppedMay))
	}
	if len(r.MustViolations) > 0 {
		fmt.Fprintf(&b, ", %d MUST VIOLATED", len(r.MustViolations))
	}
	b.WriteString(")\n")
	for _, e := range r.Trace {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}
