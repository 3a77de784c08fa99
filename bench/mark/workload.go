// Package mark is cmifmark's harness: it starts the server tiers in
// process, drives them over loopback TCP through the public repro/cmif
// facade from two client goroutines, checks every output, and reports
// end-to-end metrics (untraced run) or per-layer metrics (traced run).
package mark

import (
	"fmt"

	"repro/cmif"
)

// Fixed load shape. Every run uses exactly these, whatever the host
// offers, so two runs differ only in the code under test.
const (
	// Procs is the GOMAXPROCS every run sets; hosts with fewer CPUs are
	// refused.
	Procs = 2
	// Clients is the number of closed-loop client goroutines, each on
	// its own persistent connection.
	Clients = 2
	// Windows is how many consecutive equal-count windows a phase is cut
	// into: ops_per_s and every latency percentile are the median over
	// the windows of the per-window value, so a burst of interference
	// from the host that hits a few windows moves none of them.
	Windows = 9
	// SetupRepeats is how many times an untraced run sets up; setup_s is
	// their median and the last set-up is the one measured.
	SetupRepeats = 3
	// RecoverRepeats is how many recovery samples recover_s is the
	// median of; each sample repeats LoadDataDir for RecoverSampleMin.
	RecoverRepeats = 5
	// SizeGuardMS aborts a run whose corpus holds a document one local
	// view takes longer than this to run.
	SizeGuardMS = 250
	// MaxOverrun times the nominal seconds is where a measured phase is
	// cut off when the host is too slow to finish the op budget.
	MaxOverrun = 1.5
)

// Workload is one traffic mix.
type Workload struct {
	Name string
	// Why is the one-line reason the workload exists.
	Why string
	// Specs generate the corpus. They are fixed: the run's seed orders
	// the ops, picks profiles, jitter and edit targets, but never
	// changes what is served, so byte counts repeat across seeds.
	Specs []cmif.CorpusSpec
	// Edge puts a warmed cmif.Edge between the clients and the origin.
	Edge bool
	// Author makes the measured phase the author/follower pair; view
	// workloads run the same pair as a short fixed tail.
	Author bool
	// NominalRate is the ops per second the op budget assumes: about
	// what two cores of the reference host complete. The measured phase
	// runs NominalRate x seconds ops, so the work — bytes moved, blocks
	// stored, log written — is the same in every run, and only the time
	// it takes varies. A code change never changes it.
	NominalRate float64
	// WarmRounds is the warm-up length in schedule rounds.
	WarmRounds int
	// TailRounds is the length of the live tail after a view phase.
	TailRounds int
}

func newsWebSpecs(n, size, langs int) []cmif.CorpusSpec {
	specs := make([]cmif.CorpusSpec, n)
	for i := range specs {
		specs[i] = cmif.CorpusSpec{Shape: cmif.CorpusNewsWeb, Seed: uint64(101 + i), Size: size, Languages: langs}
	}
	return specs
}

// The media corpus: eight NewsWeb documents of about 2.8 MB of video
// and audio blocks and about 220 nodes each.
var mediaSpecs = newsWebSpecs(8, 8, 4)

// The structure corpus: three cost classes so the op median and p90 sit
// inside a class and not on a boundary (3 + 2 + 3 of 8 documents).
// DeepNest grows as Size^Depth — Size 4 / Depth 5 takes minutes per
// view — so the set-up size guard checks every document.
var structureSpecs = []cmif.CorpusSpec{
	{Shape: cmif.CorpusArchive, Seed: 201, Size: 20},
	{Shape: cmif.CorpusArchive, Seed: 202, Size: 20},
	{Shape: cmif.CorpusArchive, Seed: 203, Size: 20},
	{Shape: cmif.CorpusDeepNest, Seed: 204, Size: 3, Depth: 3},
	{Shape: cmif.CorpusDeepNest, Seed: 205, Size: 3, Depth: 3},
	{Shape: cmif.CorpusDeepNest, Seed: 206, Size: 2, Depth: 6},
	{Shape: cmif.CorpusDeepNest, Seed: 207, Size: 2, Depth: 6},
	{Shape: cmif.CorpusDeepNest, Seed: 208, Size: 2, Depth: 6},
}

// Workloads lists the four traffic mixes in reporting order.
func Workloads() []Workload {
	return []Workload{
		{
			Name:        "view-media",
			Why:         "media-heavy documents straight from the origin: block transport, store reads and filter.Apply do the work",
			Specs:       mediaSpecs,
			NominalRate: 72,
			WarmRounds:  2, TailRounds: 90,
		},
		{
			Name:        "view-structure",
			Why:         "node-heavy documents with almost no media: codec, validation, scheduler, player and renderers do the work",
			Specs:       structureSpecs,
			NominalRate: 88,
			WarmRounds:  2, TailRounds: 90,
		},
		{
			Name:        "view-edge",
			Why:         "the view-media corpus and ops through a warmed edge: the cost or gain of the edge hop and its caches",
			Specs:       mediaSpecs,
			Edge:        true,
			NominalRate: 56,
			WarmRounds:  2, TailRounds: 90,
		},
		{
			Name:        "author-live",
			Why:         "edits and block puts beside a follower on a durable origin: WAL, edit engine, live hub and reschedule",
			Specs:       newsWebSpecs(1, 6, 3),
			Author:      true,
			NominalRate: 940,
			WarmRounds:  60,
		},
	}
}

// roundSize is the number of ops in one schedule round: every
// (document, profile) pair once, or one cycle of the author's op mix.
func (w Workload) roundSize() int {
	if w.Author {
		return len(authorRound)
	}
	return len(w.Specs) * len(Profiles)
}

// budget is the stop rule of a measured phase of the given nominal
// length: the op budget in whole rounds, and the cut-off.
func (w Workload) budget(seconds float64) stopRule {
	rounds := int(w.NominalRate*seconds/float64(w.roundSize()) + 0.5)
	if rounds < 1 {
		rounds = 1
	}
	return stopRule{rounds: rounds, seconds: seconds * MaxOverrun}
}

// WorkloadByName resolves one of Workloads.
func WorkloadByName(name string) (Workload, error) {
	for _, w := range Workloads() {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("unknown workload %q", name)
}
