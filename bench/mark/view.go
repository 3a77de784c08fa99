package mark

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/cmif"
	"repro/internal/core"
	"repro/internal/filter"
	"repro/internal/player"
	"repro/internal/present"
	"repro/internal/render"
	"repro/internal/sched"
)

// view is the one view op every view workload runs: open the document,
// fetch its blocks, run the device pipeline, check the result. The
// client keeps no block cache — every op is a new reader. The prefetch
// is spelled out (RunPipeline's WithFetcher does the same PrefetchVia
// internally) only so the fetched store can be checked.
func (e *env) view(ctx context.Context, c *cmif.Client, op ViewOp) error {
	d := e.docs[op.Doc]
	doc, err := c.OpenDoc(ctx, d.name)
	if err != nil {
		return err
	}
	store, err := cmif.PrefetchVia(ctx, c, doc)
	if err != nil {
		return err
	}
	out, err := cmif.RunPipeline(ctx, doc, append(viewOptions(op), cmif.WithStore(store))...)
	if err != nil {
		return err
	}
	return d.check(op, store, out.Schedule.Makespan(), out.Playback.Success(), out.Filtered.TotalBytes())
}

// check is the per-op output check: playback honoured every must arc,
// the schedule has the makespan set-up computed locally, the fetched
// store holds exactly the expected blocks (the client derives each
// block's address from the bytes that arrived, so an address match is a
// content match), and filtering kept the expected bytes.
func (d *corpusDoc) check(op ViewOp, store *cmif.Store, makespan time.Duration, playedOK bool, filteredBytes int64) error {
	want := d.expect[op.Profile]
	if !playedOK {
		return fmt.Errorf("check: playback violated a must arc")
	}
	if makespan != want.makespan {
		return fmt.Errorf("check: makespan %v, want %v", makespan, want.makespan)
	}
	if store.Len() != d.blocks || store.TotalBytes() != d.mediaBytes {
		return fmt.Errorf("check: fetched %d blocks / %d bytes, want %d / %d",
			store.Len(), store.TotalBytes(), d.blocks, d.mediaBytes)
	}
	for name, id := range d.blockIDs {
		if b, ok := store.GetByName(name); !ok || b.ID != id {
			return fmt.Errorf("check: block %q missing or corrupt", name)
		}
	}
	if filteredBytes != want.filteredBytes {
		return fmt.Errorf("check: filtered store holds %d bytes, want %d", filteredBytes, want.filteredBytes)
	}
	return nil
}

// traceSink is a traced phase's recorder: the spans plus the counts
// taken at the same boundaries.
type traceSink struct {
	*Tracer
	ops, events, constraints, dropped atomic.Int64
	// fetchedBytes counts document text and block payload bytes the
	// traced ops asked for: the denominator of the wire overhead ratio.
	fetchedBytes atomic.Int64
}

func newTraceSink() *traceSink { return &traceSink{Tracer: NewTracer()} }

// viewTraced is view with RunPipeline replaced by the same stage calls,
// each under a span named for the layer it enters. It must stay in step
// with internal/pipeline.Run; TestTracedViewMatchesPipeline holds it to
// that.
func (e *env) viewTraced(ctx context.Context, c *cmif.Client, op ViewOp, tr *traceSink, opID int64) error {
	d := e.docs[op.Doc]
	root := tr.Start(opID, 0, "client", "view")
	defer tr.End(root)
	span := func(layer, name string, f func() error) error {
		id := tr.Start(opID, root, layer, name)
		err := f()
		tr.End(id)
		return err
	}

	var doc *cmif.Document
	var store *cmif.Store
	if err := span("transport", "transport.opendoc", func() (err error) {
		doc, err = c.OpenDoc(ctx, d.name)
		return err
	}); err != nil {
		return err
	}
	if err := span("transport", "transport.blocks", func() (err error) {
		store, err = cmif.PrefetchVia(ctx, c, doc)
		return err
	}); err != nil {
		return err
	}
	tr.ops.Add(1)
	tr.fetchedBytes.Add(d.docBytes + d.mediaBytes)

	st, err := runStages(doc, store, op, span)
	if err != nil {
		return err
	}
	tr.events.Add(int64(st.events))
	tr.constraints.Add(int64(st.constraints))
	tr.dropped.Add(int64(st.dropped))
	return d.check(op, store, st.makespan, st.playedOK, st.filteredBytes)
}

// stageOutcome is what the staged pipeline hands the output check, plus
// the scheduler's size counts.
type stageOutcome struct {
	makespan      time.Duration
	playedOK      bool
	filteredBytes int64
	finishedAt    time.Duration
	views         [4]string

	events, constraints, dropped int
}

// runStages runs the target-dependent stages of internal/pipeline.Run in
// its order and with its options, handing each to span.
func runStages(doc *cmif.Document, store *cmif.Store, op ViewOp,
	span func(layer, name string, f func() error) error) (stageOutcome, error) {
	var out stageOutcome
	// The facade hides its *core.Document; rebuilding the handle over
	// the same tree only re-reads the root dictionaries.
	cd, err := core.NewDocument(doc.Root())
	if err != nil {
		return out, err
	}
	if err := span("core", "core.validate", func() error {
		if errs := core.Errors(cd.Validate()); len(errs) > 0 {
			return fmt.Errorf("document invalid: %v", errs[0])
		}
		return nil
	}); err != nil {
		return out, err
	}
	var g *sched.Graph
	if err := span("sched", "sched.build", func() (err error) {
		g, err = sched.Build(cd, sched.Options{DefaultLeafDuration: 500 * time.Millisecond})
		return err
	}); err != nil {
		return out, err
	}
	var schedule *sched.Schedule
	if err := span("sched", "sched.solve", func() (err error) {
		schedule, err = g.SolveParallel(sched.SolveOptions{Relax: true})
		return err
	}); err != nil {
		return out, err
	}
	out.makespan = schedule.Makespan()
	out.events, out.constraints, out.dropped = g.NumEvents(), g.NumConstraints(), len(schedule.Dropped)
	if err := span("present", "present.map", func() error {
		_, err := present.MapDocument(cd, present.Options{Screen: viewScreen, Speakers: viewSpeakers})
		return err
	}); err != nil {
		return out, err
	}
	var fm *filter.FilterMap
	if err := span("filter", "filter.evaluate", func() (err error) {
		fm, err = filter.Evaluate(cd, store, Profiles[op.Profile])
		return err
	}); err != nil {
		return out, err
	}
	if err := span("filter", "filter.apply", func() error {
		filtered, err := filter.Apply(fm, store)
		if err == nil {
			out.filteredBytes = filtered.TotalBytes()
		}
		return err
	}); err != nil {
		return out, err
	}
	if err := span("player", "player.play", func() error {
		res, err := player.Play(g, player.Options{
			Jitter: cmif.UniformJitter(op.JitterSeed, viewJitter), Relax: true,
		})
		if err == nil {
			out.playedOK, out.finishedAt = res.Success(), res.FinishedAt
		}
		return err
	}); err != nil {
		return out, err
	}
	_ = span("render", "render.views", func() error {
		out.views[0] = render.Tree(cd)
		out.views[1] = render.Timeline(schedule, render.TimelineOptions{
			Resolution: timelineResolution(schedule.Makespan()),
		})
		out.views[2] = render.TOCText(schedule)
		out.views[3] = render.ArcTable(cd)
		return nil
	})
	return out, nil
}

// timelineResolution mirrors the unexported helper in internal/pipeline.
func timelineResolution(span time.Duration) time.Duration {
	switch {
	case span <= 2*time.Second:
		return 100 * time.Millisecond
	case span <= 30*time.Second:
		return 500 * time.Millisecond
	case span <= 5*time.Minute:
		return 2 * time.Second
	default:
		return 15 * time.Second
	}
}
