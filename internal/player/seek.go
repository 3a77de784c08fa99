package player

import (
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/sched"
)

// Seek analysis implements the paper's third synchronization conflict
// (section 5.3.3): "in navigating through a document, a reader ... may want
// to fast-forward (or fast-reverse) to a document section that contains a
// number of relative synchronization constraints for which the source or
// destination are not active. ... We support the general notion within
// relative arcs that the source of the arc must execute in order for a
// synchronization condition to be true; if this is not the case, all
// incoming synchronization arcs are considered to be invalid."

// ArcState classifies an explicit arc at a seek point.
type ArcState int

const (
	// ArcValid means the source executes at or after the seek point, so
	// the arc still constrains playback.
	ArcValid ArcState = iota
	// ArcSatisfied means both endpoints lie entirely before the seek
	// point: the arc already did its work.
	ArcSatisfied
	// ArcInvalid means the source completed before the seek point but the
	// destination is still pending: the source will never execute in the
	// resumed playback, so the arc is invalid and must be ignored.
	ArcInvalid
)

func (s ArcState) String() string {
	switch s {
	case ArcValid:
		return "valid"
	case ArcSatisfied:
		return "satisfied"
	case ArcInvalid:
		return "invalid"
	default:
		return "unknown"
	}
}

// SeekReport describes the document state at a seek target.
type SeekReport struct {
	// At is the seek time.
	At time.Duration
	// Active lists leaves whose [start, end) interval spans the seek
	// point, in path order: what the reader sees on each channel.
	Active []*core.Node
	// Arcs maps every explicit arc to its state at the seek point.
	Arcs []SeekArc
}

// SeekArc pairs an arc with its classification.
type SeekArc struct {
	Ref   sched.ArcRef
	State ArcState
}

// Invalid filters the report to invalid arcs: playback resumed at the
// seek point ignores them, per the paper's rule, by re-solving its plan
// with them dropped (sched.Graph.SolveFrom).
func (r *SeekReport) Invalid() []sched.ArcRef {
	var out []sched.ArcRef
	for _, a := range r.Arcs {
		if a.State == ArcInvalid {
			out = append(out, a.Ref)
		}
	}
	return out
}

// AnalyzeSeek classifies every explicit arc against a seek to time at,
// using the planned schedule s.
func AnalyzeSeek(s *sched.Schedule, at time.Duration) *SeekReport {
	g := s.Graph()
	doc := g.Doc()
	rep := &SeekReport{At: at}

	doc.Root.Walk(func(n *core.Node) bool {
		if n.Type.IsLeaf() && s.StartOf(n) <= at && at < s.EndOf(n) {
			rep.Active = append(rep.Active, n)
		}
		return true
	})
	sort.Slice(rep.Active, func(i, j int) bool {
		return rep.Active[i].PathString() < rep.Active[j].PathString()
	})

	for _, ref := range g.Arcs() {
		src, dst, err := ref.Node.ResolveArc(ref.Arc)
		if err != nil {
			continue
		}
		srcTime := s.StartOf(src)
		if ref.Arc.SrcEnd == core.End {
			srcTime = s.EndOf(src)
		}
		dstTime := s.StartOf(dst)
		if ref.Arc.DestEnd == core.End {
			dstTime = s.EndOf(dst)
		}
		state := ArcValid
		switch {
		case srcTime < at && dstTime < at:
			state = ArcSatisfied
		case srcTime < at && dstTime >= at:
			state = ArcInvalid
		}
		rep.Arcs = append(rep.Arcs, SeekArc{Ref: ref, State: state})
	}
	return rep
}
