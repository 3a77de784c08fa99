// Package cluster turns N cmifd-class nodes into one replicated serving
// surface: a gossip membership protocol agrees on who is alive, a
// consistent-hash ring places every document and block on R replicas,
// writes are journaled through the primary's durable WAL and shipped to
// the other replicas as the same framed records crash recovery replays,
// and reads are served by any replica. A killed node's key ranges fail
// over to the surviving replicas; a rejoining node resyncs from a peer's
// state walk. The paper's argument for locally served computers — many
// cheap nodes holding durable state near the clients — lands here as the
// final scale layer above the edge tier.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// DefaultVirtualNodes is the ring points each node projects. More points
// smooth the key distribution (and the ≤ ~1/N movement bound on
// membership change) at the cost of a larger sorted ring; 64 keeps the
// imbalance under a few percent for the cluster sizes the benches run.
const DefaultVirtualNodes = 64

// DefaultReplication is the replication factor R: each key lives on R
// distinct nodes (or all of them, when fewer than R are alive).
const DefaultReplication = 3

// Ring is an immutable consistent-hash ring over a set of node IDs.
// Placement is a pure function of the sorted ID set — two processes that
// agree on membership agree on every key's replica set, with no
// coordination. Build a new Ring on every membership change; they are
// cheap (N·vnodes points).
type Ring struct {
	points []ringPoint
	nodes  []string
}

type ringPoint struct {
	hash uint64
	node string
}

// NewRing builds a ring over nodes with vnodes virtual points each
// (DefaultVirtualNodes if vnodes <= 0). Duplicate IDs collapse; order is
// irrelevant.
func NewRing(nodes []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	uniq := make([]string, 0, len(nodes))
	seen := make(map[string]bool, len(nodes))
	for _, n := range nodes {
		if n != "" && !seen[n] {
			seen[n] = true
			uniq = append(uniq, n)
		}
	}
	sort.Strings(uniq)
	r := &Ring{nodes: uniq, points: make([]ringPoint, 0, len(uniq)*vnodes)}
	for _, n := range uniq {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hashKey(fmt.Sprintf("%s#%d", n, v)), n})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash ties (vanishingly rare) break on the node ID so placement
		// stays deterministic across processes.
		return r.points[i].node < r.points[j].node
	})
	return r
}

// hashKey is 64-bit FNV-1a finished with a murmur-style avalanche:
// stable across processes, architectures and Go releases — the property
// the whole scheme rests on. Raw FNV-1a clusters structured inputs
// (addresses, sequential keys) on the ring; the finalizer spreads every
// input bit across the full word, which the balance property test pins.
func hashKey(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Nodes returns the ring's member IDs, sorted.
func (r *Ring) Nodes() []string { return r.nodes }

// Len returns the number of member nodes.
func (r *Ring) Len() int { return len(r.nodes) }

// ReplicaSet returns the n distinct nodes owning key, walking clockwise
// from the key's hash: the first is the primary, the rest are replicas.
// Fewer than n nodes returns all of them (primary first).
func (r *Ring) ReplicaSet(key string, n int) []string {
	if len(r.nodes) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	h := hashKey(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	set := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i := 0; i < len(r.points) && len(set) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			set = append(set, p.node)
		}
	}
	return set
}

// Primary returns the first node of key's replica set, "" on an empty
// ring.
func (r *Ring) Primary(key string) string {
	set := r.ReplicaSet(key, 1)
	if len(set) == 0 {
		return ""
	}
	return set[0]
}
