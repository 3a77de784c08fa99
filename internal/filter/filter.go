package filter

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/media"
	"repro/internal/sched"
)

// Profile describes a target presentation environment.
type Profile struct {
	Name string
	// Media lists the media the environment can present at all. Empty
	// means every medium.
	Media []core.Medium
	// ColorBits caps color depth (0 = unlimited).
	ColorBits int64
	// MaxWidth/MaxHeight cap raster dimensions (0 = unlimited).
	MaxWidth  int64
	MaxHeight int64
	// MaxFrameRate caps video frame rate (0 = unlimited).
	MaxFrameRate int64
	// BandwidthBytesPerSec caps average payload consumption (0 =
	// unlimited). The verdict counts the stored bytes of every leaf the
	// device presents — block payloads for external leaves, node data for
	// immediate ones — before any transform, so it is an upper bound on
	// what Apply ships; it divides them by the makespan of the plan the
	// document is played from.
	BandwidthBytesPerSec int64
}

// Supports reports whether the profile can present medium m.
func (p Profile) Supports(m core.Medium) bool {
	if len(p.Media) == 0 {
		return true
	}
	for _, mm := range p.Media {
		if mm == m {
			return true
		}
	}
	return false
}

// Workstation1991 is a period-appropriate capable device.
var Workstation1991 = Profile{
	Name:         "workstation",
	ColorBits:    8,
	MaxWidth:     1280,
	MaxHeight:    1024,
	MaxFrameRate: 25,
}

// Laptop1991 is a constrained monochrome device.
var Laptop1991 = Profile{
	Name:                 "laptop",
	ColorBits:            1,
	MaxWidth:             640,
	MaxHeight:            480,
	MaxFrameRate:         10,
	BandwidthBytesPerSec: 512 << 10,
}

// TextTerminal cannot present continuous media at all.
var TextTerminal = Profile{
	Name:  "terminal",
	Media: []core.Medium{core.MediumText},
}

// Action classifies a per-leaf decision.
type Action int

const (
	// Pass presents the block unchanged.
	Pass Action = iota
	// Transform presents the block after the listed transforms.
	Transform
	// Drop cannot present the block at all.
	Drop
)

func (a Action) String() string {
	switch a {
	case Pass:
		return "pass"
	case Transform:
		return "transform"
	case Drop:
		return "drop"
	default:
		return fmt.Sprintf("action(%d)", int(a))
	}
}

// TransformKind enumerates the filterings the paper lists.
type TransformKind int

const (
	// Quantize reduces color depth.
	Quantize TransformKind = iota
	// Downres halves resolution (possibly repeatedly).
	Downres
	// Subsample divides video frame rate.
	Subsample
)

func (k TransformKind) String() string {
	switch k {
	case Quantize:
		return "quantize"
	case Downres:
		return "downres"
	case Subsample:
		return "subsample"
	default:
		return fmt.Sprintf("transform(%d)", int(k))
	}
}

// TransformSpec is one planned transform with its parameter (target bits,
// halving count, or subsample factor).
type TransformSpec struct {
	Kind  TransformKind
	Param int64
}

func (t TransformSpec) String() string {
	return fmt.Sprintf("%s(%d)", t.Kind, t.Param)
}

// Decision is the verdict for one leaf node.
type Decision struct {
	Node       *core.Node
	File       string // data descriptor name ("" for immediate nodes)
	Action     Action
	Transforms []TransformSpec
	Reason     string
}

// FilterMap is the filter tool's output: the constraint mapping for one
// document on one device ("the assumption is that this tool manages a
// constraint mapping; the actual constraint implementation will be
// supported by user level, operating system, or hardware level modules").
type FilterMap struct {
	Profile   Profile
	Decisions []Decision
	// BandwidthNeeded is the average payload rate of the leaves that are
	// not dropped: their stored, untransformed bytes per second of the
	// played plan's makespan (see Profile.BandwidthBytesPerSec). It is
	// computed only under a bandwidth cap.
	BandwidthNeeded int64
	// BandwidthOK reports whether the profile's bandwidth cap holds.
	BandwidthOK bool
}

// Supportable reports whether the environment can present the whole
// document (possibly transformed): no drops and bandwidth within budget.
func (m *FilterMap) Supportable() bool {
	if !m.BandwidthOK {
		return false
	}
	for _, d := range m.Decisions {
		if d.Action == Drop {
			return false
		}
	}
	return true
}

// Counts tallies decisions by action.
func (m *FilterMap) Counts() (pass, transform, drop int) {
	for _, d := range m.Decisions {
		switch d.Action {
		case Pass:
			pass++
		case Transform:
			transform++
		case Drop:
			drop++
		}
	}
	return
}

// DefaultLeafDuration is the length Evaluate's plan gives a leaf with no
// known duration; pipeline.Run plans with it too, so their verdicts agree.
const DefaultLeafDuration = 500 * time.Millisecond

// Evaluate computes the filter map for a document against a profile. When
// the profile caps bandwidth it first plans the document (Build with
// DefaultLeafDuration, relaxed Solve); callers that already hold the plan
// they will play should call EvaluatePlan instead.
func Evaluate(d *core.Document, store *media.Store, p Profile) (*FilterMap, error) {
	var plan *sched.Schedule
	if p.BandwidthBytesPerSec > 0 {
		g, err := sched.Build(d, sched.Options{DefaultLeafDuration: DefaultLeafDuration})
		if err != nil {
			return nil, fmt.Errorf("filter: bandwidth analysis: %w", err)
		}
		if plan, err = g.Solve(sched.SolveOptions{Relax: true}); err != nil {
			return nil, fmt.Errorf("filter: bandwidth analysis: %w", err)
		}
	}
	return EvaluatePlan(d, store, p, plan)
}

// EvaluatePlan computes the filter map for a document against a profile,
// judging bandwidth over plan, the schedule the document will be played
// from. The plan may be nil only when the profile has no bandwidth cap.
// The store provides descriptors for external nodes; immediate nodes are
// judged on their node attributes alone. Only descriptors are consulted —
// the point the paper makes about working on "relatively small clusters
// of data" — so EvaluatePlan never touches payloads.
func EvaluatePlan(d *core.Document, store *media.Store, p Profile, plan *sched.Schedule) (*FilterMap, error) {
	if p.BandwidthBytesPerSec > 0 && plan == nil {
		return nil, fmt.Errorf("filter: bandwidth analysis for profile %q needs a plan", p.Name)
	}
	fm := &FilterMap{Profile: p, BandwidthOK: true}
	var totalBytes int64

	// The plan's graph holds the document's resolution; without a plan of
	// this document, resolve it here, in the order Walk visits.
	var res []core.Resolved
	if plan == nil || plan.Graph().Doc() != d {
		res = core.Resolve(d)
	}
	i := -1
	d.Root.Walk(func(n *core.Node) bool {
		if i++; !n.Type.IsLeaf() {
			return true
		}
		var r *core.Resolved
		if res != nil {
			r = &res[i]
		} else {
			r = plan.Graph().Resolved(n)
		}
		dec := Decision{Node: n}

		var medium core.Medium
		var blk *media.Block
		var size int64
		if n.Type == core.Ext {
			file := r.File
			if !r.HasFile {
				dec.Action = Drop
				dec.Reason = "external node has no file attribute"
				fm.Decisions = append(fm.Decisions, dec)
				return true
			}
			dec.File = file
			b, ok := store.GetByName(file)
			if !ok {
				dec.Action = Drop
				dec.Reason = fmt.Sprintf("descriptor %q not in store", file)
				fm.Decisions = append(fm.Decisions, dec)
				return true
			}
			blk = b
			medium = b.Medium
			size = int64(len(b.Payload))
		} else {
			medium = r.Medium
			size = int64(len(n.Data))
		}

		if !p.Supports(medium) {
			dec.Action = Drop
			dec.Reason = fmt.Sprintf("device cannot present %v", medium)
			fm.Decisions = append(fm.Decisions, dec)
			return true
		}
		totalBytes += size

		if blk != nil {
			dec.Transforms = planTransforms(blk, p)
		}
		if len(dec.Transforms) > 0 {
			dec.Action = Transform
			var parts []string
			for _, tr := range dec.Transforms {
				parts = append(parts, tr.String())
			}
			dec.Reason = strings.Join(parts, ", ")
		}
		fm.Decisions = append(fm.Decisions, dec)
		return true
	})

	if p.BandwidthBytesPerSec > 0 {
		if span := plan.Makespan(); span > 0 {
			fm.BandwidthNeeded = totalBytes * int64(time.Second) / int64(span)
			fm.BandwidthOK = fm.BandwidthNeeded <= p.BandwidthBytesPerSec
		}
	}
	return fm, nil
}

// planTransforms derives the transform chain needed to fit blk into p,
// using descriptor attributes only.
func planTransforms(b *media.Block, p Profile) []TransformSpec {
	var out []TransformSpec
	raster := b.Medium == core.MediumImage || b.Medium == core.MediumVideo
	if !raster {
		return nil
	}
	if p.ColorBits > 0 && b.ColorBits() > p.ColorBits {
		out = append(out, TransformSpec{Kind: Quantize, Param: p.ColorBits})
	}
	if p.MaxWidth > 0 || p.MaxHeight > 0 {
		w, h := b.Width(), b.Height()
		halvings := int64(0)
		for (p.MaxWidth > 0 && w > p.MaxWidth) || (p.MaxHeight > 0 && h > p.MaxHeight) {
			w /= 2
			h /= 2
			halvings++
			if w == 0 || h == 0 {
				break
			}
		}
		if halvings > 0 {
			out = append(out, TransformSpec{Kind: Downres, Param: halvings})
		}
	}
	if p.MaxFrameRate > 0 && b.Medium == core.MediumVideo {
		if rate, ok := b.Descriptor.GetInt(media.DescFrameRate); ok && rate > p.MaxFrameRate {
			// Pick the smallest integral factor that both divides the rate
			// and lands at or under the cap.
			for f := int64(2); f <= rate; f++ {
				if rate%f == 0 && rate/f <= p.MaxFrameRate {
					out = append(out, TransformSpec{Kind: Subsample, Param: f})
					break
				}
			}
		}
	}
	return out
}

// Apply realizes the filter map against the store, returning a new store
// holding transformed blocks under the original names (so the document's
// file attributes keep resolving). Dropped entries are omitted; blocks
// that pass untransformed are shared with the source store, not copied.
// A transformed block is kept under its derivation (Store.PutDerived):
// nothing looks it up by content, so its bytes are never hashed.
func Apply(fm *FilterMap, store *media.Store) (*media.Store, error) {
	out := media.NewStore()
	done := map[string]bool{}
	for _, dec := range fm.Decisions {
		if dec.File == "" || dec.Action == Drop || done[dec.File] {
			continue
		}
		done[dec.File] = true
		b, ok := store.GetByName(dec.File)
		if !ok {
			return nil, fmt.Errorf("filter: %q vanished from store", dec.File)
		}
		for _, tr := range dec.Transforms {
			var err error
			switch tr.Kind {
			case Quantize:
				b, err = media.Quantize(b, tr.Param)
			case Downres:
				b, err = media.Downres(b, int(tr.Param))
			case Subsample:
				b, err = media.SubsampleFrames(b, tr.Param)
			default:
				err = fmt.Errorf("filter: unknown transform %v", tr.Kind)
			}
			if err != nil {
				return nil, fmt.Errorf("filter: applying %v to %q: %w", tr, dec.File, err)
			}
		}
		if _, err := out.PutDerived(b.WithName(dec.File)); err != nil {
			return nil, fmt.Errorf("filter: %w", err)
		}
	}
	return out, nil
}

// String renders the filter map as a report.
func (m *FilterMap) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "filter map for %q: supportable=%v", m.Profile.Name, m.Supportable())
	if m.Profile.BandwidthBytesPerSec > 0 {
		fmt.Fprintf(&b, " (needs %d B/s of %d)", m.BandwidthNeeded, m.Profile.BandwidthBytesPerSec)
	}
	b.WriteString("\n")
	sorted := append([]Decision(nil), m.Decisions...)
	sort.SliceStable(sorted, func(i, j int) bool {
		return sorted[i].Node.PathString() < sorted[j].Node.PathString()
	})
	for _, dec := range sorted {
		fmt.Fprintf(&b, "  %-9s %-30s %s\n", dec.Action, dec.Node.PathString(), dec.Reason)
	}
	return b.String()
}
