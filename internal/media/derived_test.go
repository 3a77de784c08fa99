package media

import (
	"bytes"
	"testing"
)

// idJournal records the IDs of the blocks journaled into a store.
type idJournal struct{ ids []string }

func (j *idJournal) JournalPutBlock(b *Block)           { j.ids = append(j.ids, b.ID) }
func (j *idJournal) JournalDeleteBlock(string)          {}
func (j *idJournal) JournalRegisterName(string, string) {}

// TestDerivedBlocksAreNotNamedByContent: an operation's output carries no
// content address until one is asked for, PutDerived keeps it where no
// address reaches it — two names derived the same way from one source
// sharing one entry — and Put, or a journaled store, names it by the
// hash of its bytes.
func TestDerivedBlocksAreNotNamedByContent(t *testing.T) {
	src := CaptureImage("photo.img", 32, 32, 9)
	q, err := Quantize(src, 4)
	if err != nil {
		t.Fatal(err)
	}
	if q.ID != "" {
		t.Fatalf("Quantize named its output %.12s", q.ID)
	}
	addr := ContentAddress(q.Medium, q.Payload)
	if q.Address() != addr || q.Verify() != nil {
		t.Fatal("a derived block's Address is not the hash of its bytes, or it fails Verify")
	}
	sub, err := Downres(q, 1)
	if err != nil || sub.ID != "" {
		t.Fatalf("Downres of a derived block: %v, ID %q", err, sub.ID)
	}

	s := NewStore()
	again, _ := Quantize(src, 4)
	k1, _ := s.PutDerived(q.WithName("a.img"))
	k2, _ := s.PutDerived(again.WithName("b.img"))
	if k1 != k2 || s.Len() != 1 || s.TotalBytes() != int64(len(q.Payload)) {
		t.Errorf("two names derived alike: keys %q and %q, %d entries of %d bytes; want one", k1, k2, s.Len(), s.TotalBytes())
	}
	if isHex64(k1) {
		t.Errorf("derivation key %q has the form of a content address", k1)
	}
	if _, ok := s.Get(addr); ok {
		t.Error("a derived block is reachable by the address of its bytes it was never hashed to")
	}
	if b, ok := s.GetByName("b.img"); !ok || !bytes.Equal(b.Payload, q.Payload) || b.ID != "" {
		t.Error("the derived block is not served under its name as it was put")
	}
	if kept, _ := s.PutDerived(src); kept != src.ID {
		t.Errorf("PutDerived of an addressed block kept it under %q, want its ID", kept)
	}

	for _, put := range []func(*Store, *Block) (string, error){(*Store).Put, (*Store).PutDerived} {
		s, j := NewStore(), &idJournal{}
		s.SetJournal(j)
		if id, _ := put(s, q); id != addr || len(j.ids) != 1 || j.ids[0] != addr {
			t.Errorf("journaled put of a derived block: key %.12s, journaled %v; want its address", id, j.ids)
		}
		if b, ok := s.Get(addr); !ok || b.ID != addr || !bytes.Equal(b.Payload, q.Payload) {
			t.Error("a journaled derived block is not stored under its address")
		}
	}
}

func isHex64(s string) bool {
	if len(s) != 64 {
		return false
	}
	for _, c := range s {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
