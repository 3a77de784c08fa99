package render

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/sched"
)

// Tree renders the node tree in the conventional indented form of Figure
// 5a, annotating each node with its type, name and channel.
func Tree(d *core.Document) string {
	res := core.Resolve(d) // in the order walk visits
	var b strings.Builder
	var walk func(n *core.Node, depth int)
	walk = func(n *core.Node, depth int) {
		r := &res[0]
		res = res[1:]
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(n.Type.String())
		if name := n.Name(); name != "" {
			b.WriteString(" ")
			b.WriteString(name)
		}
		var notes []string
		if r.Channel != nil && n.Type.IsLeaf() {
			notes = append(notes, "channel="+r.Channel.Name)
		}
		if r.HasFile && n.Type == core.Ext {
			notes = append(notes, "file="+r.File)
		}
		if n.Type == core.Imm {
			notes = append(notes, fmt.Sprintf("%d bytes", len(n.Data)))
		}
		if len(r.Arcs) > 0 {
			notes = append(notes, fmt.Sprintf("%d arcs", len(r.Arcs)))
		}
		if len(notes) > 0 {
			b.WriteString("  [")
			b.WriteString(strings.Join(notes, ", "))
			b.WriteString("]")
		}
		b.WriteByte('\n')
		for _, c := range n.Children() {
			walk(c, depth+1)
		}
	}
	walk(d.Root, 0)
	return b.String()
}

// TOCEntry is one named node in the table of contents.
type TOCEntry struct {
	Node  *core.Node
	Depth int
	Start time.Duration
	End   time.Duration
}

// TOC builds the table of contents: every named composite and leaf with its
// scheduled extent. "The document structure map provides a data-independent,
// position-independent and system-independent view of the multimedia
// document being read, acting as an internal table-of-contents function."
func TOC(s *sched.Schedule) []TOCEntry {
	var out []TOCEntry
	d := s.Graph().Doc()
	d.Root.Walk(func(n *core.Node) bool {
		if n.Name() == "" && !n.IsRoot() {
			return true
		}
		out = append(out, TOCEntry{
			Node:  n,
			Depth: n.Depth(),
			Start: s.StartOf(n),
			End:   s.EndOf(n),
		})
		return true
	})
	return out
}

// TOCText renders the table of contents.
func TOCText(s *sched.Schedule) string {
	var b strings.Builder
	for _, e := range TOC(s) {
		name := e.Node.Name()
		if name == "" {
			name = "(document)"
		}
		fmt.Fprintf(&b, "%s%-24s %10v .. %-10v\n",
			strings.Repeat("  ", e.Depth), name, e.Start, e.End)
	}
	return b.String()
}

// ArcTable renders every explicit arc in the document in the tabular form
// of Figure 9: type, source, offset, destination, min_delay, max_delay.
func ArcTable(d *core.Document) string {
	var rows [][6]string
	res := core.Resolve(d)
	for i := range res {
		n := res[i].Node
		for _, a := range res[i].Arcs {
			maxs := a.MaxDelay.String()
			if a.MaxDelay.Value >= 1<<62 {
				maxs = "inf"
			}
			rows = append(rows, [6]string{
				fmt.Sprintf("(%s %s)", a.DestEnd, a.Strict),
				n.PathString() + " : " + orSelf(a.Source) + "." + a.SrcEnd.String(),
				a.Offset.String(),
				orSelf(a.Dest),
				a.MinDelay.String(),
				maxs,
			})
		}
	}
	header := [6]string{"type", "source", "offset", "destination", "min_delay", "max_delay"}
	widths := make([]int, 6)
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, cell := range r {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(r [6]string) {
		for i, cell := range r {
			fmt.Fprintf(&b, "| %-*s ", widths[i], cell)
		}
		b.WriteString("|\n")
	}
	writeRow(header)
	total := 1
	for _, w := range widths {
		total += w + 3
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, r := range rows {
		writeRow(r)
	}
	return b.String()
}

func orSelf(p string) string {
	if p == "" {
		return "(self)"
	}
	return p
}

// TimelineOptions controls the channel/time view.
type TimelineOptions struct {
	// Resolution is the document time per text row; default 100ms.
	Resolution time.Duration
	// ColWidth is the width of each channel column; default 14.
	ColWidth int
	// MaxRows caps the rendering; default 200 rows.
	MaxRows int
}

// Timeline renders the Figure 4b / Figure 10 view: one column per channel,
// time top to bottom, leaf events as boxes labelled with their names.
func Timeline(s *sched.Schedule, opts TimelineOptions) string {
	if opts.Resolution <= 0 {
		opts.Resolution = 100 * time.Millisecond
	}
	if opts.ColWidth < 6 {
		opts.ColWidth = 14
	}
	if opts.MaxRows <= 0 {
		opts.MaxRows = 200
	}
	tl := s.ChannelTimeline()

	// Stable channel order: dictionary order first, extras after.
	d := s.Graph().Doc()
	var channels []string
	seen := map[string]bool{}
	for _, name := range d.Channels().Names() {
		if _, used := tl[name]; used {
			channels = append(channels, name)
			seen[name] = true
		}
	}
	var extra []string
	for name := range tl {
		if !seen[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	channels = append(channels, extra...)

	rows := int(s.Makespan()/opts.Resolution) + 1
	if rows > opts.MaxRows {
		rows = opts.MaxRows
	}

	cw := opts.ColWidth
	var b strings.Builder
	// Header.
	b.WriteString(strings.Repeat(" ", 11))
	for _, ch := range channels {
		fmt.Fprintf(&b, "%-*s", cw, clip(ch, cw-1))
	}
	b.WriteString("\n")
	b.WriteString(strings.Repeat(" ", 11))
	for range channels {
		b.WriteString(strings.Repeat("-", cw-1))
		b.WriteString(" ")
	}
	b.WriteString("\n")

	for row := 0; row < rows; row++ {
		t0 := time.Duration(row) * opts.Resolution
		t1 := t0 + opts.Resolution
		fmt.Fprintf(&b, "%9v  ", t0)
		for _, ch := range channels {
			cell := strings.Repeat(" ", cw-1)
			for _, slot := range tl[ch] {
				if slot.End <= t0 || slot.Start >= t1 {
					continue
				}
				switch {
				case slot.Start >= t0: // block starts in this bucket
					label := "+" + clip(nodeLabel(slot.Node), cw-2)
					cell = pad(label, cw-1)
				case slot.End <= t1: // block ends in this bucket
					cell = pad("+"+strings.Repeat("-", cw-3), cw-1)
				default: // continuation
					cell = pad("|", cw-1)
				}
			}
			b.WriteString(cell)
			b.WriteString(" ")
		}
		b.WriteString("\n")
	}
	return b.String()
}

func nodeLabel(n *core.Node) string {
	if name := n.Name(); name != "" {
		return name
	}
	return n.PathString()
}

func clip(s string, n int) string {
	if n <= 0 {
		return ""
	}
	if len(s) > n {
		return s[:n]
	}
	return s
}

func pad(s string, n int) string {
	if len(s) >= n {
		return s[:n]
	}
	return s + strings.Repeat(" ", n-len(s))
}
