package cluster

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/media"
	"repro/internal/transport"
)

// lyingNode is a node whose server answers a read of the address armed
// for it in lies with other bytes.
type lyingNode struct {
	*Node
	lies *sync.Map // *Node → lie
}

type lie struct {
	addr  string
	other *media.Block
}

func (n lyingNode) GetBlock(name string) (*media.Block, bool) {
	if l, ok := n.lies.Load(n.Node); ok && l.(lie).addr == name {
		return l.(lie).other, true
	}
	return n.Node.GetBlock(name)
}

// TestProxyReadRefusesMisaddressedBlock: a node proxying a read by
// content address to a replica that answers with other bytes answers
// not-found, keeps nothing, and does not condemn the replica — it
// answered, wrongly.
func TestProxyReadRefusesMisaddressedBlock(t *testing.T) {
	var lies sync.Map
	plain := backendOf
	backendOf = func(n *Node) transport.Backend { return lyingNode{n, &lies} }
	t.Cleanup(func() { backendOf = plain })
	nodes := startCluster(t, 2, 1)
	want := media.CaptureVideo("anchor.vid", 5, 16, 12, 25, 1)
	other := media.CaptureVideo("other.vid", 6, 16, 12, 25, 1)
	owner := nodes[0].ring().ReplicaSet(BlockKey(want.ID), 1)[0]
	liar, asker := nodes[0], nodes[1]
	if liar.view.SelfID() != owner {
		liar, asker = asker, liar
	}
	// The owner answers a read of the address with other bytes.
	lies.Store(liar, lie{want.ID, other})
	var mismatch *transport.AddressMismatchError
	if _, err := dialNode(t, liar.Addr()).GetBlock(context.Background(), want.ID); !errors.As(err, &mismatch) {
		t.Fatalf("a direct read from the lying replica: %v, want an address mismatch", err)
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
