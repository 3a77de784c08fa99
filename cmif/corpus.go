package cmif

import (
	"repro/internal/corpus"
	"repro/internal/experiments"
	"repro/internal/newsdoc"
)

// NewsConfig sizes the built-in evening-news corpus (the paper's running
// example, sections 4 and 5.3.4).
type NewsConfig = newsdoc.Config

// BuildNews generates the five-channel evening-news broadcast with its
// synthetic media store. A zero config gets three stories.
func BuildNews(cfg NewsConfig) (*Document, *Store, error) {
	d, store, err := newsdoc.Build(cfg)
	if err != nil {
		return nil, nil, err
	}
	return wrapDocument(d), store, nil
}

// CorpusShape selects a load-test corpus generator: CorpusNewsWeb (wide
// multilingual news webs), CorpusArchive (long text-heavy journal runs)
// or CorpusDeepNest (deep par/seq nesting with dense May arcs — schedule
// it with WithRelaxation).
type CorpusShape = corpus.Shape

// The generator shapes.
const (
	CorpusNewsWeb  = corpus.NewsWeb
	CorpusArchive  = corpus.Archive
	CorpusDeepNest = corpus.DeepNest
)

// CorpusSpec sizes one generated document; generation is deterministic
// in the spec, so two processes with the same spec agree on the corpus.
type CorpusSpec = corpus.Spec

// GenerateCorpus builds one synthetic document of the given shape plus
// the store holding its external media blocks. The document validates
// before it is returned.
func GenerateCorpus(spec CorpusSpec) (*Document, *Store, error) {
	d, store, err := corpus.Generate(spec)
	if err != nil {
		return nil, nil, err
	}
	return wrapDocument(d), store, nil
}

// Experiment pairs an experiment id (T1, F1..F10, A1, A2) with its
// generator, regenerating one artifact of the paper's evaluation.
type Experiment = experiments.Experiment

// ExperimentTable is one experiment's tabular result.
type ExperimentTable = experiments.Table

// Experiments lists every reproduction experiment in paper order.
func Experiments() []Experiment { return experiments.All() }
