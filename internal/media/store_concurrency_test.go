package media

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/attr"
	"repro/internal/core"
)

// TestStoreConcurrentHammer drives the sharded store from parallel
// goroutines mixing every operation; run with -race it proves the lock
// striping is sound, and the final VerifyAll proves no block was torn.
func TestStoreConcurrentHammer(t *testing.T) {
	s := NewStore()
	const (
		workers = 16
		rounds  = 200
	)
	// Pre-seed a shared corpus every worker reads.
	shared := make([]*Block, 32)
	for i := range shared {
		shared[i] = CaptureText(fmt.Sprintf("shared-%02d.txt", i),
			fmt.Sprintf("payload %d", i), "en")
		s.Put(shared[i])
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				switch i % 5 {
				case 0: // write a private block
					b := CaptureText(fmt.Sprintf("w%d-%04d.txt", w, i),
						fmt.Sprintf("w%d i%d", w, i), "en")
					s.Put(b)
				case 1: // read shared by name
					want := shared[i%len(shared)]
					got, ok := s.GetByName(want.Name)
					if !ok || got.ID != want.ID {
						t.Errorf("GetByName(%q) = %v, %v", want.Name, got, ok)
						return
					}
				case 2: // read shared by id
					want := shared[(i+w)%len(shared)]
					if _, ok := s.Get(want.ID); !ok {
						t.Errorf("Get(%q) missed", want.ID[:12])
						return
					}
				case 3: // aggregate views
					if s.Len() < len(shared) {
						t.Errorf("Len() = %d, below seeded %d", s.Len(), len(shared))
						return
					}
					s.Names()
					s.TotalBytes()
				case 4: // churn: put then delete a throwaway block (unique
					// payload — identical content would share an id across
					// workers and make their deletes race each other)
					b := CaptureText(fmt.Sprintf("tmp-w%d-%04d.txt", w, i),
						fmt.Sprintf("tmp w%d i%d", w, i), "en")
					id, _ := s.Put(b)
					if !s.Delete(id) {
						t.Errorf("Delete(%q) = false for fresh block", id[:12])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	if err := s.VerifyAll(); err != nil {
		t.Fatalf("VerifyAll after hammer: %v", err)
	}
	// Every shared block must have survived the churn.
	for _, b := range shared {
		if _, ok := s.GetByName(b.Name); !ok {
			t.Errorf("shared block %q lost", b.Name)
		}
	}
	// Deleted names must not linger in the registry.
	for _, name := range s.Names() {
		if _, ok := s.GetByName(name); !ok {
			t.Errorf("name %q registered but block missing", name)
		}
	}
}

// TestStoreDeleteRemovesAllNames exercises the cross-shard name sweep: two
// names in different stripes pointing at one id must both disappear.
func TestStoreDeleteRemovesAllNames(t *testing.T) {
	s := NewStore()
	payload := []byte("same bytes")
	a := NewBlock("alpha.txt", core.MediumText, payload, attr.List{})
	b := NewBlock("omega.txt", core.MediumText, payload, attr.List{})
	if a.ID != b.ID {
		t.Fatalf("same payload produced different ids")
	}
	s.Put(a)
	s.Put(b)
	if got := len(s.Names()); got != 2 {
		t.Fatalf("Names() = %d, want 2", got)
	}
	if !s.Delete(a.ID) {
		t.Fatalf("Delete returned false")
	}
	if got := len(s.Names()); got != 0 {
		t.Fatalf("Names() after delete = %v, want none", s.Names())
	}
	if _, ok := s.GetByName("omega.txt"); ok {
		t.Fatalf("omega.txt still resolves after delete")
	}
}

// TestChunkIndexConcurrentChurn races DedupeStats against puts and
// deletes of four near-duplicate blocks under the race detector: a
// moving store has no exact answer, but no call may tear. Afterwards
// the figures are those of the survivors.
func TestChunkIndexConcurrentChurn(t *testing.T) {
	s := NewStore()
	blocks := make([]*Block, 4)
	for i, p := range splicedVariants(len(blocks), 64<<10, 31) {
		blocks[i] = NewBlock(fmt.Sprintf("dup-%d.vid", i), core.MediumVideo, p, attr.List{})
		s.Put(blocks[i])
	}
	const (
		workers = 8
		rounds  = 60
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				b := blocks[(i+w)%len(blocks)]
				switch (i + w) % 3 {
				case 0:
					s.Delete(b.ID)
				case 1:
					s.Put(b)
				case 2:
					st := s.DedupeStats()
					if st.ChunkedBlocks > len(blocks) || st.UniqueBytes > st.LogicalBytes {
						t.Errorf("DedupeStats tore: %+v", st)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	survivors := NewStore()
	for _, b := range blocks {
		if _, ok := s.Get(b.ID); ok {
			survivors.Put(b)
		}
	}
	if got, want := s.DedupeStats(), survivors.DedupeStats(); got != want {
		t.Fatalf("after the churn: %+v, want the survivors' %+v", got, want)
	}
}
