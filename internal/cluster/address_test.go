package cluster

import (
	"context"
	"testing"

	"repro/internal/media"
)

// TestProxyReadRefusesMisaddressedBlock: a node proxying a read by
// content address to a replica that answers with other bytes answers
// not-found, keeps nothing, and does not condemn the replica — it
// answered, wrongly.
func TestProxyReadRefusesMisaddressedBlock(t *testing.T) {
	nodes := startCluster(t, 2, 1)
	want := media.CaptureVideo("anchor.vid", 5, 16, 12, 25, 1)
	other := media.CaptureVideo("other.vid", 6, 16, 12, 25, 1)
	owner := nodes[0].ring().ReplicaSet(BlockKey(want.ID), 1)[0]
	liar, asker := nodes[0], nodes[1]
	if liar.view.SelfID() != owner {
		liar, asker = asker, liar
	}
	// The owner resolves the address as a name pointing at other bytes.
	liar.Registry.Store.Put(other)
	if !liar.Registry.Store.RegisterName(want.ID, other.ID) {
		t.Fatal("RegisterName refused")
	}

	if b, ok := asker.GetBlock(want.ID); ok {
		t.Fatalf("proxy read served %s for the lied-about address", b.Name)
	}
	c := dialNode(t, asker.Addr())
	if _, err := c.GetBlock(context.Background(), want.ID); !isNotFound(err) {
		t.Fatalf("client of the asking node: %v, want not-found", err)
	}
	if _, ok := asker.Registry.Store.Get(other.ID); ok {
		t.Fatal("the asking node kept the misaddressed block")
	}
	for _, m := range asker.Members() {
		if m.ID == liar.view.SelfID() && m.State != StateAlive {
			t.Fatalf("the asking node condemned the replica that answered: %v", m.State)
		}
	}
}
