package cmif_test

import (
	"errors"
	"testing"

	"repro/cmif"
	"repro/internal/durable"
	"repro/internal/media"
)

// TestAddressShapedNameNeverRegisters: a name of content-address form
// names only its own block, whichever way a registration arrives — a WAL
// record replayed at recovery (a log written before the rule may hold
// one), a record a peer replicates, or the seed store a durable server
// copies — so none of them points the address at other bytes.
func TestAddressShapedNameNeverRegisters(t *testing.T) {
	want := media.CaptureVideo("anchor.vid", 5, 16, 12, 25, 1)
	other := media.CaptureVideo("other.vid", 6, 16, 12, 25, 1)
	if want.ID == other.ID {
		t.Fatal("the two captures have one address; the test would prove nothing")
	}
	pointsAtOther := func(s *media.Store) bool {
		id, ok := s.Resolve(want.ID)
		return ok && id == other.ID
	}

	// Replay: recovery skips the journaled registration.
	dir := t.TempDir()
	log, st, err := durable.Open(dir, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st.Store.SetJournal(log)
	if _, err := st.Store.Put(other); err != nil {
		t.Fatal(err)
	}
	log.JournalRegisterName(want.ID, other.ID)
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	log, st, err = durable.Open(dir, durable.Options{})
	if err != nil {
		t.Fatalf("recovery of a log holding the registration: %v", err)
	}
	if pointsAtOther(st.Store) {
		t.Error("replay registered an address as a name of other bytes")
	}
	if _, ok := st.Store.Get(other.ID); !ok {
		t.Error("replay lost the block the registration named")
	}
	log.Close()

	// Replication: a replica refuses the batch carrying it.
	log, st, err = durable.Open(t.TempDir(), durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	block, err := durable.FramePutBlock(other)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := log.AppendFrames(append(block, durable.FrameRegisterName(want.ID, other.ID)...)); !errors.Is(err, durable.ErrCorrupt) {
		t.Errorf("replicating the registration: %v, want a corrupt batch", err)
	}
	if pointsAtOther(st.Store) {
		t.Error("replication registered an address as a name of other bytes")
	}

	// Seed copy: a durable server copying a store's names does not take
	// it (and no store registers it in the first place).
	seed := media.NewStore()
	if _, err := seed.Put(other); err != nil {
		t.Fatal(err)
	}
	seed.RegisterName(want.ID, other.ID)
	srv := cmif.NewServer(cmif.WithServedStore(seed), cmif.WithDataDir(t.TempDir()))
	defer srv.Close()
	if pointsAtOther(srv.Store()) {
		t.Error("the seed copy registered an address as a name of other bytes")
	}
}
