// Package lru is the one recency list behind the budgeted caches (the
// edge's memory tier and the index of edge.DiskCache): a map plus a
// linked list, a budget in whatever unit the owner's cost function
// counts, and an evict hook. It does not lock: each owner's one mutex
// already guards more than the list (flights, name and chunk-reference
// tables), and every method here runs under it. Hits and misses stay
// with the owners, for whom a hit means different things (a joined
// flight, a file that verified).
package lru

import "container/list"

// Cache maps K to V under a budget, evicting the least recently used
// entries when the charged cost exceeds it.
type Cache[K comparable, V any] struct {
	budget, used int64
	cost         func(V) int64
	onEvict      func(K, V)
	order        *list.List // front = most recently used
	items        map[K]*list.Element
	evictions    int64
}

type entry[K comparable, V any] struct {
	key  K
	val  V
	cost int64
}

// New returns an empty cache. cost prices a value in budget units (1 for
// a count budget, a length for a byte budget). onEvict, when non-nil,
// runs after each entry budget pressure pushes out, oldest first; it may
// call Charge to release bytes the entry kept alive.
func New[K comparable, V any](budget int64, cost func(V) int64, onEvict func(K, V)) *Cache[K, V] {
	return &Cache[K, V]{budget: budget, cost: cost, onEvict: onEvict,
		order: list.New(), items: make(map[K]*list.Element)}
}

// Get returns the value under k and marks it most recently used.
func (c *Cache[K, V]) Get(k K) (v V, ok bool) {
	el, ok := c.items[k]
	if !ok {
		return v, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*entry[K, V]).val, true
}

// Contains reports whether k is resident, leaving recency alone.
func (c *Cache[K, V]) Contains(k K) bool {
	_, ok := c.items[k]
	return ok
}

// Add stores v under k as the most recently used entry, replacing and
// re-pricing whatever k held, then evicts until the budget holds. A
// value costlier than the whole budget is not admitted (reported false):
// caching it would flush everything else and then itself.
func (c *Cache[K, V]) Add(k K, v V) bool {
	cost := c.cost(v)
	if cost > c.budget {
		return false
	}
	if el, ok := c.items[k]; ok {
		e := el.Value.(*entry[K, V])
		c.used -= e.cost
		e.val, e.cost = v, cost
		c.order.MoveToFront(el)
	} else {
		c.items[k] = c.order.PushFront(&entry[K, V]{k, v, cost})
	}
	c.Charge(cost)
	return true
}

// Remove deletes k without running the evict hook or counting an
// eviction: the owner is discarding the entry, not the budget.
func (c *Cache[K, V]) Remove(k K) (v V, ok bool) {
	el, ok := c.items[k]
	if !ok {
		return v, false
	}
	e := c.order.Remove(el).(*entry[K, V])
	delete(c.items, k)
	c.used -= e.cost
	return e.val, true
}

// Charge adds delta to the budget's usage on behalf of something the
// entries share rather than own (the disk cache's chunk files), then
// evicts until the budget holds. A negative delta releases.
func (c *Cache[K, V]) Charge(delta int64) {
	c.used += delta
	for c.used > c.budget && c.order.Len() > 0 {
		k := c.order.Back().Value.(*entry[K, V]).key
		v, _ := c.Remove(k)
		c.evictions++
		if c.onEvict != nil {
			c.onEvict(k, v)
		}
	}
}

// Len, Used, Budget and Evictions report occupancy, charged cost, the
// configured budget and how many entries budget pressure has pushed out.
func (c *Cache[K, V]) Len() int         { return c.order.Len() }
func (c *Cache[K, V]) Used() int64      { return c.used }
func (c *Cache[K, V]) Budget() int64    { return c.budget }
func (c *Cache[K, V]) Evictions() int64 { return c.evictions }
