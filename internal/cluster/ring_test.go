package cluster

import (
	"fmt"
	"math/rand"
	"testing"
)

func ringNodes(n int) []string {
	nodes := make([]string, n)
	for i := range nodes {
		nodes[i] = fmt.Sprintf("10.0.0.%d:7911", i+1)
	}
	return nodes
}

// TestRingDeterministicPlacement pins that placement is a pure function
// of the membership set: two independently built rings (shuffled input
// order) agree on every replica set — the cross-process determinism the
// forwarding and failover logic rely on.
func TestRingDeterministicPlacement(t *testing.T) {
	nodes := ringNodes(7)
	shuffled := append([]string(nil), nodes...)
	rand.New(rand.NewSource(42)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	a := NewRing(nodes, 0)
	b := NewRing(shuffled, 0)
	for k := 0; k < 2000; k++ {
		key := fmt.Sprintf("doc-%d", k)
		sa, sb := a.ReplicaSet(key, 3), b.ReplicaSet(key, 3)
		if len(sa) != len(sb) {
			t.Fatalf("key %q: set sizes differ", key)
		}
		for i := range sa {
			if sa[i] != sb[i] {
				t.Fatalf("key %q: placement differs: %v vs %v", key, sa, sb)
			}
		}
	}
}

// TestRingReplicaSetsDistinct pins that a replica set is always R
// distinct live nodes (or every node, when fewer than R exist).
func TestRingReplicaSetsDistinct(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 9} {
		r := NewRing(ringNodes(n), 0)
		wantLen := 3
		if n < 3 {
			wantLen = n
		}
		for k := 0; k < 1000; k++ {
			set := r.ReplicaSet(fmt.Sprintf("key-%d", k), 3)
			if len(set) != wantLen {
				t.Fatalf("n=%d key-%d: %d replicas, want %d", n, k, len(set), wantLen)
			}
			seen := map[string]bool{}
			for _, m := range set {
				if seen[m] {
					t.Fatalf("n=%d key-%d: duplicate replica %s", n, k, m)
				}
				seen[m] = true
			}
			if set[0] != r.Primary(fmt.Sprintf("key-%d", k)) {
				t.Fatalf("n=%d key-%d: primary disagrees with set head", n, k)
			}
		}
	}
}

// TestRingKeyMovementOnMembershipChange pins the consistent-hashing
// contract: removing one of N nodes re-homes only that node's share of
// primaries (≈1/N), and adding a node steals only ≈1/(N+1) — nothing
// else moves.
func TestRingKeyMovementOnMembershipChange(t *testing.T) {
	const keys = 4000
	nodes := ringNodes(8)
	full := NewRing(nodes, 0)

	// Leave: drop one node.
	smaller := NewRing(nodes[:len(nodes)-1], 0)
	moved := 0
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("key-%d", k)
		was, is := full.Primary(key), smaller.Primary(key)
		if was != is {
			moved++
			if was != nodes[len(nodes)-1] {
				t.Fatalf("key %q moved from surviving node %s to %s", key, was, is)
			}
		}
	}
	// Expected share 1/8 = 12.5%; allow vnode imbalance up to 2x.
	if limit := keys * 2 / len(nodes); moved > limit {
		t.Fatalf("leave moved %d/%d keys, limit %d (~2/N)", moved, keys, limit)
	}
	if moved == 0 {
		t.Fatal("leave moved no keys — the departed node owned nothing?")
	}

	// Join: add a node to the full ring.
	joined := NewRing(append(append([]string(nil), nodes...), "10.0.0.99:7911"), 0)
	moved = 0
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("key-%d", k)
		was, is := full.Primary(key), joined.Primary(key)
		if was != is {
			moved++
			if is != "10.0.0.99:7911" {
				t.Fatalf("key %q moved to %s, not the joining node", key, is)
			}
		}
	}
	if limit := keys * 2 / (len(nodes) + 1); moved > limit {
		t.Fatalf("join moved %d/%d keys, limit %d (~2/(N+1))", moved, keys, limit)
	}
	if moved == 0 {
		t.Fatal("join moved no keys — the new node owns nothing?")
	}
}

// TestRingBalance sanity-checks that virtual nodes spread primaries
// roughly evenly: no node owns more than ~3x its fair share.
func TestRingBalance(t *testing.T) {
	const keys = 6000
	r := NewRing(ringNodes(6), 0)
	counts := map[string]int{}
	for k := 0; k < keys; k++ {
		counts[r.Primary(fmt.Sprintf("key-%d", k))]++
	}
	fair := keys / 6
	for node, c := range counts {
		if c > 3*fair {
			t.Fatalf("node %s owns %d/%d primaries (fair %d)", node, c, keys, fair)
		}
		if c == 0 {
			t.Fatalf("node %s owns nothing", node)
		}
	}
}

func TestRingEdgeCases(t *testing.T) {
	empty := NewRing(nil, 0)
	if set := empty.ReplicaSet("x", 3); set != nil {
		t.Fatalf("empty ring returned %v", set)
	}
	if p := empty.Primary("x"); p != "" {
		t.Fatalf("empty ring primary %q", p)
	}
	one := NewRing([]string{"a", "a", ""}, 4)
	if got := one.ReplicaSet("x", 3); len(got) != 1 || got[0] != "a" {
		t.Fatalf("dup/empty IDs: %v", got)
	}
}
