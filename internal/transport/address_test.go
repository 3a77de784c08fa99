package transport

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/media"
)

// lyingBackend answers one content address with another block's bytes.
type lyingBackend struct {
	*Registry
	addr  string
	other *media.Block
}

func (b lyingBackend) GetBlock(name string) (*media.Block, bool) {
	if name == b.addr {
		return b.other, true
	}
	return b.Registry.GetBlock(name)
}

// TestGetBlocksChecksContentAddress: a block asked for by content address
// and answered under another name must hash to that address, inlined in
// the batch or fetched as a deferred stream. A mismatch fails the call
// with an error naming the address; names and honest addresses are
// served as before, and a name that has the form of another block's
// address is refused by the store.
func TestGetBlocksChecksContentAddress(t *testing.T) {
	store := media.NewStore()
	want := media.CaptureVideo("anchor.vid", 5, 16, 12, 25, 1)
	other := media.CaptureVideo("other.vid", 6, 16, 12, 25, 1)
	shaped := media.CaptureAudio(strings.Repeat("ab", 32), 200, 8000, 440, 3)
	if want.ID == other.ID {
		t.Fatal("the two captures have one address; the test would prove nothing")
	}
	for _, b := range []*media.Block{want, other} {
		store.Put(b)
	}
	var bad *media.AddressNameError
	if _, err := store.Put(shaped); !errors.As(err, &bad) || bad.Name != shaped.Name || bad.ID != shaped.ID {
		t.Fatalf("Put of a block under an address-shaped name not its own: %v, want an *AddressNameError", err)
	}
	srv := NewServer(lyingBackend{NewRegistry(store), want.ID, other})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	ctx := context.Background()

	for _, deferred := range []bool{false, true} {
		t.Run(fmt.Sprintf("deferred=%v", deferred), func(t *testing.T) {
			if deferred {
				old := batchBudget
				batchBudget = 16 // every payload overflows: each comes back deferred
				t.Cleanup(func() { batchBudget = old })
			}
			_, err := c.GetBlocks(ctx, []string{"anchor.vid", want.ID})
			var mm *AddressMismatchError
			if !errors.As(err, &mm) || mm.Key != want.ID || mm.ID != other.ID {
				t.Fatalf("GetBlocks of a lied-about address: %v, want an *AddressMismatchError for %s", err, want.ID[:12])
			}
			if !strings.Contains(err.Error(), want.ID) || !errors.Is(err, ErrRemote) {
				t.Fatalf("error %q does not name the address or match ErrRemote", err)
			}
			if _, err := c.GetBlock(ctx, want.ID); !errors.As(err, &mm) {
				t.Fatalf("GetBlock of a lied-about address: %v", err)
			}

			keys := []string{"anchor.vid", other.ID}
			blocks, err := c.GetBlocks(ctx, keys)
			if err != nil {
				t.Fatalf("honest fetch: %v", err)
			}
			for i, b := range []*media.Block{want, other} {
				if blocks[i] == nil || blocks[i].ID != b.ID {
					t.Fatalf("%s: fetched the wrong block", keys[i])
				}
			}
		})
	}
}

// TestGetBlocksChecksAddressWhateverTheName: a server that answers a
// content address with other bytes named by that very address gets them
// refused, inlined or deferred: only the hash of the bytes satisfies a
// key of address form.
func TestGetBlocksChecksAddressWhateverTheName(t *testing.T) {
	store := media.NewStore()
	want := media.CaptureVideo("anchor.vid", 5, 16, 12, 25, 1)
	other := media.CaptureVideo("other.vid", 6, 16, 12, 25, 1)
	store.Put(want)
	srv := NewServer(lyingBackend{NewRegistry(store), want.ID, other.WithName(want.ID)})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	for _, deferred := range []bool{false, true} {
		if deferred {
			old := batchBudget
			batchBudget = 16
			t.Cleanup(func() { batchBudget = old })
		}
		blocks, err := c.GetBlocks(context.Background(), []string{want.ID})
		var mm *AddressMismatchError
		if !errors.As(err, &mm) || mm.Key != want.ID || mm.ID != other.ID {
			t.Fatalf("deferred=%v: GetBlocks = %v, %v; want an *AddressMismatchError for %.12s", deferred, blocks, err, want.ID)
		}
	}
}
