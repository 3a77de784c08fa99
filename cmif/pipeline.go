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

// Outcome carries every artifact a pipeline run produces: issues,
// schedule, presentation map, filter map, filtered store, playback result
// and the four view renderings.
type Outcome = pipeline.Outcome

// pipelineConfig collects the pipeline options.
type pipelineConfig struct {
	cfg     pipeline.Config
	store   *media.Store
	fetcher Fetcher
}

// PipelineOption configures RunPipeline.
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

// WithFetcher backs the run with any Fetcher — an origin Client, an
// Edge, or a Chain of layers: the document's external files are
// prefetched through it at run time (see PrefetchVia). An explicit
// WithStore takes precedence.
func WithFetcher(f Fetcher) PipelineOption {
	return func(c *pipelineConfig) { c.fetcher = f }
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

// RunPipeline drives doc through the target-system-dependent stages of
// Figure 1 — validation, timing resolution, presentation mapping,
// constraint filtering, playback simulation, viewing — against the
// device environment the options describe. The context is honoured
// between stages: cancellation or an expired deadline aborts the run
// with ctx's error (and whatever partial Outcome exists). An invalid
// document yields a *ValidationError. A device that cannot present the
// document is not an error: Outcome.FilterMap reports it (Supportable).
func RunPipeline(ctx context.Context, doc *Document, opts ...PipelineOption) (*Outcome, error) {
	var cfg pipelineConfig
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
	if store == nil {
		store = media.NewStore()
	}
	out, err := pipeline.Run(ctx, doc.doc, store, cfg.cfg)
	var pve *pipeline.ValidationError
	if errors.As(err, &pve) {
		return out, &ValidationError{Issues: pve.Issues}
	}
	return out, err
}
