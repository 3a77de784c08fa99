package mark

import (
	"bytes"
	"context"
	"fmt"
	"io/fs"
	"path/filepath"
	"sort"
	"time"

	"repro/cmif"
)

// RecoverSampleMin is the shortest a recovery sample may run: loads of
// the data directory repeat until this much time has passed, so no
// reported timing comes from a phase shorter than half a second.
const RecoverSampleMin = 500 * time.Millisecond

// servedState is what the origin held when it was asked to stop.
type servedState struct {
	docs       map[string][]byte // canonical bytes by document name
	blocks     int
	blockBytes int64
	blockIDs   []string
}

// captureServed reads the final served state: documents through a
// client, the block census from the origin's store.
func (e *env) captureServed(ctx context.Context) (*servedState, error) {
	st := &servedState{docs: map[string][]byte{}}
	for _, d := range e.docs {
		doc, err := e.clients[0].OpenDoc(ctx, d.name)
		if err != nil {
			return nil, fmt.Errorf("final fetch of %s: %w", d.name, err)
		}
		if st.docs[d.name], err = canonical(doc); err != nil {
			return nil, err
		}
	}
	store := e.origin.Store()
	st.blocks, st.blockBytes = store.Len(), store.TotalBytes()
	store.Each(func(b *cmif.Block) bool {
		st.blockIDs = append(st.blockIDs, b.ID)
		return true
	})
	sort.Strings(st.blockIDs)
	return st, nil
}

// dirBytes sums the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// recoverDataDir loads the origin's data directory `samples` times over
// and returns the seconds per load of each sample and the bytes on disk.
// The first load is checked against the served state: same documents
// byte for byte, same blocks by content address.
func (e *env) recoverDataDir(want *servedState, samples int) (secsPerLoad []float64, err error) {
	for s := 0; s < samples; s++ {
		start := time.Now()
		loads := 0
		for loads == 0 || time.Since(start) < RecoverSampleMin {
			store, docs, err := cmif.LoadDataDir(e.originDir())
			if err != nil {
				return nil, fmt.Errorf("recover: %w", err)
			}
			if s == 0 && loads == 0 {
				if err := want.matches(store, docs); err != nil {
					return nil, err
				}
			}
			loads++
		}
		secsPerLoad = append(secsPerLoad, time.Since(start).Seconds()/float64(loads))
	}
	return secsPerLoad, nil
}

func (want *servedState) matches(store *cmif.Store, docs map[string]*cmif.Document) error {
	if len(docs) != len(want.docs) {
		return fmt.Errorf("recover: %d documents, served %d", len(docs), len(want.docs))
	}
	for name, served := range want.docs {
		d, ok := docs[name]
		if !ok {
			return fmt.Errorf("recover: document %s lost", name)
		}
		got, err := canonical(d)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, served) {
			return fmt.Errorf("recover: document %s differs from the served state", name)
		}
	}
	if store.Len() != want.blocks || store.TotalBytes() != want.blockBytes {
		return fmt.Errorf("recover: %d blocks / %d bytes, served %d / %d",
			store.Len(), store.TotalBytes(), want.blocks, want.blockBytes)
	}
	for _, id := range want.blockIDs {
		if _, ok := store.GetRef(id); !ok {
			return fmt.Errorf("recover: block %s lost", id[:12])
		}
	}
	if err := store.VerifyAll(); err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	return nil
}
