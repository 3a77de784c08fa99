package render

import (
	"sort"
	"strconv"
	"time"
	"unicode/utf8"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/units"
)

// Every view appends its text to one byte buffer: no fmt, and no string
// per row or cell. Padding counts runes, as fmt's widths do.

// Tree renders the node tree in the conventional indented form of Figure
// 5a, annotating each node with its type, name and channel.
func Tree(d *core.Document) string {
	res := core.Resolve(d) // in the order walk visits
	buf := make([]byte, 0, 64*len(res))
	var walk func(n *core.Node, depth int)
	walk = func(n *core.Node, depth int) {
		r := &res[0]
		res = res[1:]
		buf = fill(buf, ' ', 2*depth)
		buf = append(buf, n.Type.String()...)
		if name := n.Name(); name != "" {
			buf = append(append(buf, ' '), name...)
		}
		notes := len(buf)
		if r.Channel != nil && n.Type.IsLeaf() {
			buf = append(note(buf, notes), "channel="...)
			buf = append(buf, r.Channel.Name...)
		}
		if r.HasFile && n.Type == core.Ext {
			buf = append(note(buf, notes), "file="...)
			buf = append(buf, r.File...)
		}
		if n.Type == core.Imm {
			buf = strconv.AppendInt(note(buf, notes), int64(len(n.Data)), 10)
			buf = append(buf, " bytes"...)
		}
		if len(r.Arcs) > 0 {
			buf = strconv.AppendInt(note(buf, notes), int64(len(r.Arcs)), 10)
			buf = append(buf, " arcs"...)
		}
		if len(buf) > notes {
			buf = append(buf, ']')
		}
		buf = append(buf, '\n')
		for _, c := range n.Children() {
			walk(c, depth+1)
		}
	}
	walk(d.Root, 0)
	return string(buf)
}

// note appends the separator before one of a node's annotations, which
// start at offset at: "  [" before the first, ", " between.
func note(buf []byte, at int) []byte {
	if len(buf) == at {
		return append(buf, "  ["...)
	}
	return append(buf, ", "...)
}

// TOCText renders the table of contents: every named composite and leaf,
// indented by its depth, with its scheduled extent. "The document
// structure map provides a data-independent, position-independent and
// system-independent view of the multimedia document being read, acting
// as an internal table-of-contents function."
func TOCText(s *sched.Schedule) string {
	buf := make([]byte, 0, 64*s.Graph().NumEvents()/2)
	var walk func(n *core.Node, depth int)
	walk = func(n *core.Node, depth int) {
		name := n.Name()
		if name == "" && n.IsRoot() {
			name = "(document)"
		}
		if name != "" {
			buf = padRight(fill(buf, ' ', 2*depth), name, 24)
			buf = padLeft(append(buf, ' '), s.StartOf(n).String(), 10)
			buf = padRight(append(buf, " .. "...), s.EndOf(n).String(), 10)
			buf = append(buf, '\n')
		}
		for _, c := range n.Children() {
			walk(c, depth+1)
		}
	}
	walk(s.Graph().Doc().Root, 0)
	return string(buf)
}

// ArcTable renders every explicit arc in the document in the tabular form
// of Figure 9: type, source, offset, destination, min_delay, max_delay.
func ArcTable(d *core.Document) string {
	const cols = 6
	res := core.Resolve(d)
	rows := 1
	for i := range res {
		rows += len(res[i].Arcs)
	}
	// The cells, header row first, go into one buffer; ends[k] is where
	// cell k ends, and cell k sits in column k%cols.
	cells := make([]byte, 0, 96*rows)
	ends := make([]int, 0, cols*rows)
	var widths [cols]int
	endCell := func() {
		start := 0
		if len(ends) > 0 {
			start = ends[len(ends)-1]
		}
		col := len(ends) % cols
		widths[col] = max(widths[col], len(cells)-start)
		ends = append(ends, len(cells))
	}
	for _, h := range [cols]string{"type", "source", "offset", "destination", "min_delay", "max_delay"} {
		cells = append(cells, h...)
		endCell()
	}
	for i := range res {
		n := res[i].Node
		for _, a := range res[i].Arcs {
			cells = append(append(cells, '('), a.DestEnd.String()...)
			cells = append(append(cells, ' '), a.Strict.String()...)
			cells = append(cells, ')')
			endCell()
			cells = append(n.AppendPath(cells), " : "...)
			cells = append(cells, orSelf(a.Source)...)
			cells = append(append(cells, '.'), a.SrcEnd.String()...)
			endCell()
			cells = appendQuantity(cells, a.Offset)
			endCell()
			cells = append(cells, orSelf(a.Dest)...)
			endCell()
			cells = appendQuantity(cells, a.MinDelay)
			endCell()
			if a.MaxDelay.Value >= 1<<62 {
				cells = append(cells, "inf"...)
			} else {
				cells = appendQuantity(cells, a.MaxDelay)
			}
			endCell()
		}
	}

	total := 1
	for _, w := range widths {
		total += w + 3
	}
	buf := make([]byte, 0, (rows+1)*(total+1))
	start := 0
	for k, end := range ends {
		cell := cells[start:end]
		start = end
		buf = append(append(buf, "| "...), cell...)
		buf = append(fill(buf, ' ', widths[k%cols]-utf8.RuneCount(cell)), ' ')
		if k%cols == cols-1 {
			buf = append(buf, "|\n"...)
		}
		if k == cols-1 { // under the header
			buf = append(fill(buf, '-', total), '\n')
		}
	}
	return string(buf)
}

func orSelf(p string) string {
	if p == "" {
		return "(self)"
	}
	return p
}

// appendQuantity appends q as units.Quantity.String renders it.
func appendQuantity(buf []byte, q units.Quantity) []byte {
	return append(strconv.AppendInt(buf, q.Value, 10), q.Unit.String()...)
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
	buf := make([]byte, 0, (rows+2)*(12+len(channels)*cw))
	// Header.
	buf = fill(buf, ' ', 11)
	for _, ch := range channels {
		buf = padRight(buf, clip(ch, cw-1), cw)
	}
	buf = fill(append(buf, '\n'), ' ', 11)
	for range channels {
		buf = append(fill(buf, '-', cw-1), ' ')
	}
	buf = append(buf, '\n')

	for row := 0; row < rows; row++ {
		t0 := time.Duration(row) * opts.Resolution
		t1 := t0 + opts.Resolution
		buf = append(padLeft(buf, t0.String(), 9), "  "...)
		for _, ch := range channels {
			// The last slot overlapping the row draws the cell.
			var slot *sched.Slot
			for i, sl := range tl[ch] {
				if sl.End > t0 && sl.Start < t1 {
					slot = &tl[ch][i]
				}
			}
			cell := len(buf)
			switch {
			case slot == nil:
			case slot.Start >= t0: // block starts in this bucket
				buf = append(buf, '+')
				label := len(buf)
				if name := slot.Node.Name(); name != "" {
					buf = append(buf, name...)
				} else {
					buf = slot.Node.AppendPath(buf)
				}
				buf = buf[:min(len(buf), label+cw-2)]
			case slot.End <= t1: // block ends in this bucket
				buf = fill(append(buf, '+'), '-', cw-3)
			default: // continuation
				buf = append(buf, '|')
			}
			buf = fill(buf, ' ', cw-(len(buf)-cell))
		}
		buf = append(buf, '\n')
	}
	return string(buf)
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

// fill appends n copies of c; none when n ≤ 0.
func fill(buf []byte, c byte, n int) []byte {
	for ; n > 0; n-- {
		buf = append(buf, c)
	}
	return buf
}

// padRight appends s left-aligned in a field of width runes, like fmt's
// %-*s.
func padRight(buf []byte, s string, width int) []byte {
	return fill(append(buf, s...), ' ', width-utf8.RuneCountInString(s))
}

// padLeft appends s right-aligned in a field of width runes, like fmt's
// %*s.
func padLeft(buf []byte, s string, width int) []byte {
	return append(fill(buf, ' ', width-utf8.RuneCountInString(s)), s...)
}
