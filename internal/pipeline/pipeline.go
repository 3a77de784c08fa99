// Package pipeline orchestrates the CWI/Multimedia Pipeline of Figure 1:
//
//	media capture → document structure mapping → presentation mapping →
//	constraint filtering → viewing
//
// The document-independent stages (capture, structure) happen before Run;
// Run drives a finished CMIF document through the target-system-dependent
// stages against one device profile, producing everything a viewing tool
// needs. "The provision of a central document description is essential if
// information is to be shared cleanly among disjoint manipulation tools."
package pipeline

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/filter"
	"repro/internal/media"
	"repro/internal/player"
	"repro/internal/present"
	"repro/internal/render"
	"repro/internal/sched"
)

// Config selects the target environment.
type Config struct {
	// Profile is the device's constraint profile.
	Profile filter.Profile
	// Screen and Speakers shape the presentation mapping.
	Screen   present.Screen
	Speakers int
	// Jitter models device latencies during playback; nil = ideal.
	Jitter player.JitterModel
}

// Outcome carries every artifact the pipeline produces.
type Outcome struct {
	Issues       []core.Issue
	Schedule     *sched.Schedule
	Presentation *present.Map
	FilterMap    *filter.FilterMap
	// Filtered is the store after applying the filter map (transformed
	// payloads).
	Filtered *media.Store
	Playback *player.Result
	// Views are the rendered reading-tool outputs: the indented
	// structure (Figure 5a), the channel/time view (Figures 4b and 10),
	// the table of contents and the synchronization-arc table (Figure 9).
	TreeView     string
	TimelineView string
	TOCView      string
	ArcView      string
}

// ValidationError reports that the document failed the validation stage.
// It carries every issue validation found, warnings included.
type ValidationError struct {
	Issues []core.Issue
}

// Error summarizes the failure with the first error-severity issue.
func (e *ValidationError) Error() string {
	errs := core.Errors(e.Issues)
	if len(errs) == 0 {
		return "pipeline: document is invalid"
	}
	return fmt.Sprintf("pipeline: document has %d validation errors (first: %v)",
		len(errs), errs[0])
}

// Run drives doc (with its block store) through presentation mapping,
// constraint filtering, simulated playback and the four views for one
// environment. An environment that cannot support the document is not an
// error: the Outcome's FilterMap says so (Supportable). The context is
// checked between stages: a cancelled or expired ctx aborts the run with
// the partial Outcome built so far and ctx's error.
func Run(ctx context.Context, doc *core.Document, store *media.Store, cfg Config) (*Outcome, error) {
	out := &Outcome{}
	if err := ctx.Err(); err != nil {
		return out, err
	}

	// Stage: validation (the structure mapping tool's exit check).
	out.Issues = doc.Validate()
	if errs := core.Errors(out.Issues); len(errs) > 0 {
		return out, &ValidationError{Issues: out.Issues}
	}
	if err := ctx.Err(); err != nil {
		return out, err
	}

	// Stage: timing resolution.
	g, err := sched.Build(doc, sched.Options{DefaultLeafDuration: filter.DefaultLeafDuration})
	if err != nil {
		return out, fmt.Errorf("pipeline: %w", err)
	}
	// Conflicting May arcs are relaxed; only a Must conflict fails the run.
	out.Schedule, err = g.Solve(sched.SolveOptions{Relax: true})
	if err != nil {
		return out, fmt.Errorf("pipeline: scheduling: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return out, err
	}

	// Stage: presentation mapping.
	out.Presentation, err = present.MapDocument(doc, present.Options{
		Screen: cfg.Screen, Speakers: cfg.Speakers,
	})
	if err != nil {
		return out, fmt.Errorf("pipeline: presentation mapping: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return out, err
	}

	// Stage: constraint filtering, judged against the plan played below.
	out.FilterMap, err = filter.EvaluatePlan(doc, store, cfg.Profile, out.Schedule)
	if err != nil {
		return out, fmt.Errorf("pipeline: constraint filtering: %w", err)
	}
	out.Filtered, err = filter.Apply(out.FilterMap, store)
	if err != nil {
		return out, fmt.Errorf("pipeline: applying filters: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return out, err
	}

	// Stage: playback simulation.
	out.Playback, err = player.PlaySchedule(out.Schedule, player.Options{Jitter: cfg.Jitter, Relax: true})
	if err != nil {
		return out, fmt.Errorf("pipeline: playback: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return out, err
	}

	// Stage: viewing tools.
	out.TreeView = render.Tree(doc)
	out.TimelineView = render.Timeline(out.Schedule, render.TimelineOptions{
		Resolution: timelineResolution(out.Schedule.Makespan()),
	})
	out.TOCView = render.TOCText(out.Schedule)
	out.ArcView = render.ArcTable(doc)
	return out, nil
}

// timelineResolution picks a row resolution that keeps the view readable.
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

// Summary renders a one-screen report of the outcome.
func (o *Outcome) Summary() string {
	var b strings.Builder
	if o.Schedule != nil {
		fmt.Fprintf(&b, "schedule: makespan %v", o.Schedule.Makespan())
		if n := len(o.Schedule.Dropped); n > 0 {
			fmt.Fprintf(&b, ", %d may-arcs dropped", n)
		}
		b.WriteString("\n")
	}
	if o.Presentation != nil {
		b.WriteString(o.Presentation.String())
	}
	if o.FilterMap != nil {
		pass, tr, drop := o.FilterMap.Counts()
		fmt.Fprintf(&b, "filter: supportable=%v (pass %d, transform %d, drop %d)\n",
			o.FilterMap.Supportable(), pass, tr, drop)
	}
	if o.Playback != nil {
		fmt.Fprintf(&b, "playback: finished %v, drift %v, stretch %v, success=%v\n",
			o.Playback.FinishedAt, o.Playback.MaxDrift,
			o.Playback.TotalStretch, o.Playback.Success())
	}
	if warnings := core.Warnings(o.Issues); len(warnings) > 0 {
		fmt.Fprintf(&b, "warnings: %d\n", len(warnings))
	}
	return b.String()
}
