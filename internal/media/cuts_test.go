package media

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/attr"
	"repro/internal/chunker"
	"repro/internal/core"
)

// TestCutsAreKeptOnce: a block is cut on the first Cuts call and answers
// every later one, and every renamed view of it, from that one memo.
func TestCutsAreKeptOnce(t *testing.T) {
	payload := make([]byte, 64<<10)
	rand.New(rand.NewSource(7)).Read(payload)
	b := NewBlock("a.vid", core.MediumVideo, payload, attr.List{})
	if b.CutsKept() {
		t.Fatal("a new block holds cuts before anyone asked")
	}
	cuts := b.Cuts()
	want := chunker.Cuts(payload)
	if len(cuts) != len(want) || len(cuts) < 2 {
		t.Fatalf("%d cuts, want chunker's %d (at least two)", len(cuts), len(want))
	}
	for i := range want {
		if cuts[i] != want[i] {
			t.Fatalf("cut %d = %v, want %v", i, cuts[i], want[i])
		}
	}
	if again := b.Cuts(); &again[0] != &cuts[0] {
		t.Error("a second Cuts call cut the payload again")
	}
	if renamed := b.WithName("b.vid").Cuts(); &renamed[0] != &cuts[0] {
		t.Error("WithName dropped the memo")
	}
}

// TestSetCutsKeepsOnlyATiling: cuts handed over are kept when their
// lengths tile the payload and no memo exists; a memo, once held, is
// never replaced.
func TestSetCutsKeepsOnlyATiling(t *testing.T) {
	b := NewBlock("a.txt", core.MediumText, []byte("0123456789"), attr.List{})
	for _, bad := range [][]chunker.Cut{nil, {{Len: 9}}, {{Len: 5}, {Len: 6}}, {{Len: 10}, {Len: 0}}, {{Len: -1}, {Len: 11}}} {
		if b.SetCuts(bad); b.CutsKept() {
			t.Fatalf("SetCuts kept %v for a 10-byte payload", bad)
		}
	}
	tiling := []chunker.Cut{{Hash: [32]byte{1}, Len: 4}, {Hash: [32]byte{2}, Len: 6}}
	b.SetCuts(tiling)
	if got := b.Cuts(); len(got) != 2 || got[0] != tiling[0] || got[1] != tiling[1] {
		t.Fatalf("Cuts = %v, want the tiling handed over", got)
	}
	b.SetCuts([]chunker.Cut{{Len: 10}})
	if got := b.Cuts(); got[0] != tiling[0] {
		t.Error("a second SetCuts replaced the memo")
	}
}

// TestPutRefusesAnotherAddressAsName: a name of content-address form is
// stored only for the block with that address; any other block under it
// is refused whole with an *AddressNameError, and names of other forms
// are untouched by the rule.
func TestPutRefusesAnotherAddressAsName(t *testing.T) {
	s := NewStore()
	a := CaptureText("a.txt", "alpha", "en")
	other := CaptureText("b.txt", "beta", "en")
	if id, err := s.Put(a.WithName(a.ID)); err != nil || id != a.ID {
		t.Fatalf("Put under its own address: %q, %v", id, err)
	}
	var bad *AddressNameError
	_, err := s.Put(other.WithName(a.ID))
	if !errors.As(err, &bad) || bad.Name != a.ID || bad.ID != other.ID {
		t.Fatalf("Put under another block's address: %v, want an *AddressNameError", err)
	}
	if _, ok := s.Get(other.ID); ok {
		t.Error("the refused block was stored")
	}
	if b, ok := s.GetByName(a.ID); !ok || b.ID != a.ID {
		t.Error("the refused put moved the address-shaped name")
	}
	for _, name := range []string{strings.ToUpper(a.ID), a.ID[:63], a.ID + "0", "story.txt"} {
		if _, err := s.Put(other.WithName(name)); err != nil {
			t.Errorf("Put under %q: %v", name, err)
		}
	}
}
