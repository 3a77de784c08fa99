package mark

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer. Spans of one op share Op; Parent
// is the ID of the span that caused this one (0 for an op's root).
type Span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Op     int64  `json:"op"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	// StartNS and EndNS are offsets from the tracer's epoch.
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
}

// Tracer keeps spans in memory until the run ends. The two client
// goroutines share one tracer; a span costs one short critical section
// at each end.
type Tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

// NewTracer starts an empty trace.
func NewTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Start opens a span and returns its ID (IDs start at 1).
func (t *Tracer) Start(op int64, parent int32, layer, name string) int32 {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Op: op, Layer: layer, Name: name, StartNS: now})
	t.mu.Unlock()
	return id
}

// End closes the span.
func (t *Tracer) End(id int32) {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNS = now
	t.mu.Unlock()
}

// Spans returns the recorded spans in start order.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// SelfTimes returns each span's self time keyed by span ID: its duration
// minus the part of its interval that its direct children cover.
// Overlapping children are counted once, and a child reaching outside
// its parent is clipped to the parent.
func SelfTimes(spans []Span) map[int32]int64 {
	type iv struct{ lo, hi int64 }
	children := make(map[int32][]iv, len(spans))
	byID := make(map[int32]Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		lo, hi := s.StartNS, s.EndNS
		if lo < p.StartNS {
			lo = p.StartNS
		}
		if hi > p.EndNS {
			hi = p.EndNS
		}
		if hi > lo {
			children[s.Parent] = append(children[s.Parent], iv{lo, hi})
		}
	}
	self := make(map[int32]int64, len(spans))
	for _, s := range spans {
		ivs := children[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
		var covered, end int64
		end = s.StartNS
		for _, c := range ivs {
			if c.hi <= end {
				continue
			}
			if c.lo > end {
				end = c.lo
			}
			covered += c.hi - end
			end = c.hi
		}
		self[s.ID] = (s.EndNS - s.StartNS) - covered
	}
	return self
}

// LayerRow is one line of the self-time-by-layer table.
type LayerRow struct {
	Layer string `json:"layer"`
	// SelfMS is the layer's total self time over the traced ops.
	SelfMS float64 `json:"self_ms"`
	// Share is SelfMS over the total of all layers.
	Share float64 `json:"share"`
	// PerOpMS is SelfMS over the number of traced ops.
	PerOpMS float64 `json:"per_op_ms"`
}

// LayerTable folds self times by layer, largest first, and also returns
// the per-op sums of self time in milliseconds (ascending), whose median
// the traced run compares with the untraced op median.
func LayerTable(spans []Span) (rows []LayerRow, opSumsMS []float64) {
	self := SelfTimes(spans)
	byLayer := map[string]int64{}
	byOp := map[int64]int64{}
	var total int64
	for _, s := range spans {
		byLayer[s.Layer] += self[s.ID]
		byOp[s.Op] += self[s.ID]
		total += self[s.ID]
	}
	for layer, ns := range byLayer {
		row := LayerRow{Layer: layer, SelfMS: float64(ns) / 1e6}
		if total > 0 {
			row.Share = float64(ns) / float64(total)
		}
		if len(byOp) > 0 {
			row.PerOpMS = row.SelfMS / float64(len(byOp))
		}
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].SelfMS != rows[j].SelfMS {
			return rows[i].SelfMS > rows[j].SelfMS
		}
		return rows[i].Layer < rows[j].Layer
	})
	for _, ns := range byOp {
		opSumsMS = append(opSumsMS, float64(ns)/1e6)
	}
	sort.Float64s(opSumsMS)
	return rows, opSumsMS
}

// spanFile is the JSON document a traced run writes at exit.
type spanFile struct {
	Workload string     `json:"workload"`
	Seed     uint64     `json:"seed"`
	Layers   []LayerRow `json:"self_time_by_layer"`
	Spans    []Span     `json:"spans"`
}

// WriteSpans writes the trace and its layer table to path.
func WriteSpans(path, workload string, seed uint64, spans []Span) error {
	rows, _ := LayerTable(spans)
	data, err := json.Marshal(spanFile{Workload: workload, Seed: seed, Layers: rows, Spans: spans})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// spanDurationsMS collects the durations of spans with the given name,
// in milliseconds, ascending.
func spanDurationsMS(spans []Span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.EndNS-s.StartNS)/1e6)
		}
	}
	sort.Float64s(out)
	return out
}
