package mark

import (
	"context"
	"fmt"
	"time"

	"repro/cmif"
)

// Screen and speakers of the device every view op presents on.
var viewScreen = cmif.Screen{W: 1152, H: 900}

const (
	viewSpeakers = 2
	viewJitter   = 30 * time.Millisecond
)

// expectation is what a correct view of one (document, profile) pair
// produces, computed locally during set-up.
type expectation struct {
	makespan      time.Duration
	filteredBytes int64
}

// corpusDoc is one served document with everything the output checks
// compare against.
type corpusDoc struct {
	name  string
	doc   *cmif.Document
	store *cmif.Store
	// blockIDs maps every external file name to its content address.
	blockIDs map[string]string
	// blocks and mediaBytes size the store; files with equal content
	// share one block, so blocks can be below len(blockIDs).
	blocks     int
	mediaBytes int64
	// docBytes is the size of the text encoding the wire carries.
	docBytes int64
	expect   []expectation // indexed like Profiles
}

// viewOptions are the pipeline options of a view op, minus the store.
func viewOptions(op ViewOp) []cmif.PipelineOption {
	return []cmif.PipelineOption{
		cmif.WithProfile(Profiles[op.Profile]),
		cmif.WithScreen(viewScreen),
		cmif.WithSpeakers(viewSpeakers),
		cmif.WithDeviceJitter(cmif.UniformJitter(op.JitterSeed, viewJitter)),
	}
}

// generateCorpus builds the workload's documents and, by viewing each
// one locally on every profile, what a correct remote view must produce.
// It is also the set-up size guard: a document whose local view exceeds
// SizeGuardMS aborts the run before a measured phase can start.
func generateCorpus(ctx context.Context, wl Workload) ([]*corpusDoc, error) {
	return generateCorpusGuarded(ctx, wl, SizeGuardMS)
}

func generateCorpusGuarded(ctx context.Context, wl Workload, guardMS int64) ([]*corpusDoc, error) {
	docs := make([]*corpusDoc, len(wl.Specs))
	for i, spec := range wl.Specs {
		d, store, err := cmif.GenerateCorpus(spec)
		if err != nil {
			return nil, fmt.Errorf("generate %v: %w", spec, err)
		}
		text, err := cmif.Encode(d)
		if err != nil {
			return nil, fmt.Errorf("encode %v: %w", spec, err)
		}
		cd := &corpusDoc{
			name:       fmt.Sprintf("%s-%d", spec.Shape, i),
			doc:        d,
			store:      store,
			blockIDs:   map[string]string{},
			blocks:     store.Len(),
			mediaBytes: store.TotalBytes(),
			docBytes:   int64(len(text)),
			expect:     make([]expectation, len(Profiles)),
		}
		for _, file := range d.ExternalFiles() {
			b, ok := store.GetByName(file)
			if !ok {
				return nil, fmt.Errorf("%s: corpus store lacks %q", cd.name, file)
			}
			cd.blockIDs[file] = b.ID
		}
		for p := range Profiles {
			opts := append(viewOptions(ViewOp{Doc: i, Profile: p, JitterSeed: 1}), cmif.WithStore(store))
			// Best of three: a shared host can stall one view for a
			// quarter of a second, a document that is too heavy is too
			// heavy every time.
			var out *cmif.Outcome
			best := int64(-1)
			for try := 0; try < 3 && (best < 0 || best > guardMS); try++ {
				start := time.Now()
				if out, err = cmif.RunPipeline(ctx, d, opts...); err != nil {
					return nil, fmt.Errorf("%s on %s: local view: %w", cd.name, Profiles[p].Name, err)
				}
				if ms := time.Since(start).Milliseconds(); best < 0 || ms < best {
					best = ms
				}
			}
			if best > guardMS {
				return nil, fmt.Errorf("size guard: one local view of %s (%+v) on %s took %d ms, over the %d ms limit; "+
					"shrink the corpus spec (DeepNest grows as Size^Depth)", cd.name, spec, Profiles[p].Name, best, guardMS)
			}
			if !out.Playback.Success() {
				return nil, fmt.Errorf("%s on %s: local playback violates a must arc", cd.name, Profiles[p].Name)
			}
			cd.expect[p] = expectation{
				makespan:      out.Schedule.Makespan(),
				filteredBytes: out.Filtered.TotalBytes(),
			}
		}
		docs[i] = cd
	}
	return docs, nil
}
