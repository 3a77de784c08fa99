package cmif

import (
	"context"
	"errors"

	"repro/internal/filter"
	"repro/internal/media"
	"repro/internal/pipeline"
	"repro/internal/present"
)

// Profile describes a target presentation environment for constraint
// filtering.
type Profile = filter.Profile

// Built-in device profiles.
var (
	// Workstation1991 is a period-appropriate capable device.
	Workstation1991 = filter.Workstation1991
	// Laptop1991 is a period-appropriate constrained device.
	Laptop1991 = filter.Laptop1991
	// TextTerminal presents text only.
	TextTerminal = filter.TextTerminal
)

// ProfileByName resolves a built-in profile: "workstation", "laptop" or
// "terminal".
func ProfileByName(name string) (Profile, error) {
	switch name {
	case "workstation":
		return Workstation1991, nil
	case "laptop":
		return Laptop1991, nil
	case "terminal":
		return TextTerminal, nil
	default:
		return Profile{}, errors.New("cmif: unknown profile " + name)
	}
}

// FilterMap is the per-leaf verdict set of the Constraint Filtering stage.
type FilterMap = filter.FilterMap

// EvaluateProfile runs constraint filtering alone: it grades every leaf of
// the document against the profile using the store's data descriptors.
func EvaluateProfile(d *Document, store *Store, p Profile) (*FilterMap, error) {
	return filter.Evaluate(d.doc, store, p)
}

// Screen is the virtual display used by presentation mapping.
type Screen = present.Screen

// PresentationMap assigns each channel a screen region or speaker.
type PresentationMap = present.Map

// MapPresentation runs the Presentation Mapping stage alone.
func MapPresentation(d *Document, screen Screen, speakers int) (*PresentationMap, error) {
	return present.MapDocument(d.doc, present.Options{Screen: screen, Speakers: speakers})
}

// RenderTarget selects which reading-tool renderings a pipeline run
// produces.
type RenderTarget = pipeline.View

// Render targets for WithRenderTarget.
const (
	// RenderTree is the indented structure view.
	RenderTree = pipeline.ViewTree
	// RenderTimeline is the channel/time view.
	RenderTimeline = pipeline.ViewTimeline
	// RenderTOC is the table-of-contents text.
	RenderTOC = pipeline.ViewTOC
	// RenderArcs is the synchronization-arc table.
	RenderArcs = pipeline.ViewArcs
	// RenderAll selects every rendering (the default).
	RenderAll = pipeline.AllViews
)

// Outcome carries every artifact a pipeline run produces: issues,
// schedule, presentation map, filter map, filtered store, playback result
// and the requested view renderings.
type Outcome = pipeline.Outcome

// Pipeline runs the target-system-dependent stages of Figure 1 —
// validation, timing resolution, presentation mapping, constraint
// filtering, playback simulation, viewing — against one device
// environment. Configure it once with functional options and Run it over
// any number of documents; Run-time options override the constructor's
// per call.
type Pipeline struct {
	opts []PipelineOption
}

// pipelineConfig collects the pipeline options.
type pipelineConfig struct {
	cfg     pipeline.Config
	store   *media.Store
	dataDir string
	fetcher Fetcher
}

// PipelineOption configures NewPipeline and Pipeline.Run.
type PipelineOption func(*pipelineConfig)

// WithProfile selects the device's constraint profile.
func WithProfile(p Profile) PipelineOption {
	return func(c *pipelineConfig) { c.cfg.Profile = p }
}

// WithStore supplies the data-block store backing the document's external
// leaves. Runs without a store see every external leaf as missing data.
func WithStore(s *Store) PipelineOption {
	return func(c *pipelineConfig) { c.store = s }
}

// WithStoreFromDataDir backs the run with the block store recovered from
// a durable server's data directory (see WithDataDir). Recovery happens
// at Run time; an explicit WithStore takes precedence. The directory
// must be quiescent — no live server writing it — like LoadDataDir.
func WithStoreFromDataDir(dir string) PipelineOption {
	return func(c *pipelineConfig) { c.dataDir = dir }
}

// WithFetcher backs the run with any Fetcher — an origin Client, an
// Edge, or a Chain of layers: the document's external files are
// prefetched through it at Run time (see PrefetchVia). An explicit
// WithStore takes precedence; WithStoreFromDataDir is consulted after
// the fetcher.
func WithFetcher(f Fetcher) PipelineOption {
	return func(c *pipelineConfig) { c.fetcher = f }
}

// WithRenderTarget restricts the run to the given renderings instead of
// producing all of them. Combine targets with |.
func WithRenderTarget(t RenderTarget) PipelineOption {
	return func(c *pipelineConfig) { c.cfg.Views = t }
}

// WithScreen sets the virtual display for presentation mapping.
func WithScreen(s Screen) PipelineOption {
	return func(c *pipelineConfig) { c.cfg.Screen = s }
}

// WithSpeakers sets the loudspeaker count for presentation mapping.
func WithSpeakers(n int) PipelineOption {
	return func(c *pipelineConfig) { c.cfg.Speakers = n }
}

// WithDeviceJitter installs the playback latency model; nil means ideal
// devices.
func WithDeviceJitter(m JitterModel) PipelineOption {
	return func(c *pipelineConfig) { c.cfg.Jitter = m }
}

// WithStrict makes the run fail (matching ErrUnsupportable) when the
// profile cannot support the document instead of reporting the filter map.
func WithStrict() PipelineOption {
	return func(c *pipelineConfig) { c.cfg.Strict = true }
}

// NewPipeline builds a reusable pipeline from functional options.
func NewPipeline(opts ...PipelineOption) *Pipeline {
	return &Pipeline{opts: opts}
}

// Run drives doc through the pipeline. The context is honoured between
// stages: cancellation or an expired deadline aborts the run with ctx's
// error (and whatever partial Outcome exists). An invalid document yields
// a *ValidationError; a strict run on an inadequate device matches
// ErrUnsupportable.
func (p *Pipeline) Run(ctx context.Context, doc *Document, opts ...PipelineOption) (*Outcome, error) {
	var cfg pipelineConfig
	for _, o := range p.opts {
		o(&cfg)
	}
	for _, o := range opts {
		o(&cfg)
	}
	store := cfg.store
	if store == nil && cfg.fetcher != nil {
		fetched, err := PrefetchVia(ctx, cfg.fetcher, doc)
		if err != nil {
			return nil, err
		}
		store = fetched
	}
	if store == nil && cfg.dataDir != "" {
		recovered, _, err := LoadDataDir(cfg.dataDir)
		if err != nil {
			return nil, err
		}
		store = recovered
	}
	if store == nil {
		store = media.NewStore()
	}
	out, err := pipeline.Run(ctx, doc.doc, store, cfg.cfg)
	var pve *pipeline.ValidationError
	var pue *pipeline.UnsupportableError
	switch {
	case errors.As(err, &pve):
		return out, &ValidationError{Issues: pve.Issues}
	case errors.As(err, &pue):
		return out, tag(err, ErrUnsupportable)
	}
	return out, err
}

// RunPipeline is a one-shot convenience: NewPipeline(opts...).Run(ctx, doc).
func RunPipeline(ctx context.Context, doc *Document, opts ...PipelineOption) (*Outcome, error) {
	return NewPipeline(opts...).Run(ctx, doc)
}
