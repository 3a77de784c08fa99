// Package ddbms implements the data-descriptor database the paper shows as
// the optional shaded region of Figure 2: "a database management system may
// be used to locate and access various data blocks based on the attributes
// in the data descriptors."
//
// The store indexes descriptor attribute lists two ways: an inverted index
// from (attribute, value) to descriptor ids for equality predicates, and a
// per-attribute sorted numeric index for range predicates. Section 6 of the
// paper motivates exactly this: "if the attributes contain search key
// information, then many time consuming activities relating to finding
// detailed information in large multimedia databases may be simplified" —
// manipulation of "relatively small clusters of data (the attributes)
// rather than the often massive amounts of media-based data itself."
//
// The database is safe for concurrent use under one read-write lock over
// one set of indexes: queries share it, writers take it alone.
package ddbms

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/attr"
	"repro/internal/units"
)

// DB is an attribute-indexed descriptor store. Safe for concurrent use.
type DB struct {
	mu      sync.RWMutex
	entries map[string]attr.List
	// inverted maps attribute name -> canonical value key -> sorted ids.
	inverted map[string]map[string][]string
	// numeric maps attribute name -> unit -> sorted (value, id) pairs.
	numeric map[string]map[units.Unit][]numEntry
}

type numEntry struct {
	value int64
	id    string
}

// New returns an empty database.
func New() *DB {
	return &DB{
		entries:  make(map[string]attr.List),
		inverted: make(map[string]map[string][]string),
		numeric:  make(map[string]map[units.Unit][]numEntry),
	}
}

// Insert adds a descriptor under id; it fails if id already exists. It
// is Upsert for a caller that must not replace a descriptor by accident.
func (db *DB) Insert(id string, desc attr.List) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, exists := db.entries[id]; exists {
		return fmt.Errorf("ddbms: descriptor %q already exists", id)
	}
	db.put(id, desc)
	return nil
}

// Upsert adds or replaces the descriptor under id.
func (db *DB) Upsert(id string, desc attr.List) {
	db.mu.Lock()
	defer db.mu.Unlock()
	prev, exists := db.entries[id]
	if exists {
		if prev.Equal(desc) {
			return
		}
		db.remove(id)
	}
	db.put(id, desc)
}

// put indexes desc under id. Caller holds the write lock.
func (db *DB) put(id string, desc attr.List) {
	desc = desc.Clone()
	db.entries[id] = desc
	for _, p := range desc.Pairs() {
		key := p.Value.String()
		byVal := db.inverted[p.Name]
		if byVal == nil {
			byVal = make(map[string][]string)
			db.inverted[p.Name] = byVal
		}
		byVal[key] = insertSorted(byVal[key], id)

		if q, ok := p.Value.AsNumber(); ok {
			byUnit := db.numeric[p.Name]
			if byUnit == nil {
				byUnit = make(map[units.Unit][]numEntry)
				db.numeric[p.Name] = byUnit
			}
			entries := byUnit[q.Unit]
			i := sort.Search(len(entries), func(i int) bool {
				if entries[i].value != q.Value {
					return entries[i].value > q.Value
				}
				return entries[i].id >= id
			})
			entries = append(entries, numEntry{})
			copy(entries[i+1:], entries[i:])
			entries[i] = numEntry{value: q.Value, id: id}
			byUnit[q.Unit] = entries
		}
	}
}

// remove unindexes id. Caller holds the write lock.
func (db *DB) remove(id string) {
	desc, ok := db.entries[id]
	if !ok {
		return
	}
	delete(db.entries, id)
	for _, p := range desc.Pairs() {
		key := p.Value.String()
		if byVal := db.inverted[p.Name]; byVal != nil {
			byVal[key] = removeSorted(byVal[key], id)
			if len(byVal[key]) == 0 {
				delete(byVal, key)
			}
		}
		if q, ok := p.Value.AsNumber(); ok {
			if byUnit := db.numeric[p.Name]; byUnit != nil {
				entries := byUnit[q.Unit]
				for i, e := range entries {
					if e.id == id && e.value == q.Value {
						byUnit[q.Unit] = append(entries[:i], entries[i+1:]...)
						break
					}
				}
			}
		}
	}
}

// Delete removes the descriptor under id, reporting whether it was
// there. It is what keeps the indexes true when a block leaves the
// store; without it they could only grow.
func (db *DB) Delete(id string) bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.entries[id]; !ok {
		return false
	}
	db.remove(id)
	return true
}

// Get fetches a copy of the descriptor under id: the "access" half of the
// paper's locate-and-access, for a caller that holds an id from Select.
func (db *DB) Get(id string) (attr.List, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	desc, ok := db.entries[id]
	if !ok {
		return attr.List{}, false
	}
	return desc.Clone(), true
}

// Len reports the number of descriptors.
func (db *DB) Len() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.entries)
}

// Pred is one query predicate.
type Pred struct {
	kind predKind
	name string
	val  attr.Value
	lo   int64
	hi   int64
	unit units.Unit
}

type predKind int

const (
	predEq predKind = iota
	predHas
	predRange
)

// Eq matches descriptors whose attribute name equals v.
func Eq(name string, v attr.Value) Pred {
	return Pred{kind: predEq, name: name, val: v}
}

// Has matches descriptors carrying attribute name (any value).
func Has(name string) Pred {
	return Pred{kind: predHas, name: name}
}

// Range matches descriptors whose numeric attribute name (in unit u) lies
// within [lo, hi].
func Range(name string, lo, hi int64, u units.Unit) Pred {
	return Pred{kind: predRange, name: name, lo: lo, hi: hi, unit: u}
}

// Select returns the ids (sorted) matching every predicate. An empty
// predicate list matches everything.
func (db *DB) Select(preds ...Pred) []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if len(preds) == 0 {
		out := make([]string, 0, len(db.entries))
		for id := range db.entries {
			out = append(out, id)
		}
		sort.Strings(out)
		return out
	}
	// Evaluate each predicate via the indexes, intersecting as we go,
	// starting from the most selective (smallest) posting list.
	lists := make([][]string, len(preds))
	for i, p := range preds {
		lists[i] = db.evalPred(p)
	}
	sort.Slice(lists, func(i, j int) bool { return len(lists[i]) < len(lists[j]) })
	result := lists[0]
	for _, l := range lists[1:] {
		result = intersectSorted(result, l)
		if len(result) == 0 {
			break
		}
	}
	return append([]string(nil), result...)
}

// SelectLinear evaluates predicates by scanning every descriptor, without
// indexes. It exists as the baseline the indexed Select is checked and
// timed against (cmifbench F2).
func (db *DB) SelectLinear(preds ...Pred) []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var out []string
	for id, desc := range db.entries {
		ok := true
		for _, p := range preds {
			if !matches(desc, p) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

func matches(desc attr.List, p Pred) bool {
	v, ok := desc.Get(p.name)
	if !ok {
		return false
	}
	switch p.kind {
	case predHas:
		return true
	case predEq:
		return v.Equal(p.val)
	case predRange:
		q, ok := v.AsNumber()
		return ok && q.Unit == p.unit && q.Value >= p.lo && q.Value <= p.hi
	default:
		return false
	}
}

// evalPred returns the sorted id list matching p. Caller holds the read
// lock.
func (db *DB) evalPred(p Pred) []string {
	switch p.kind {
	case predEq:
		byVal := db.inverted[p.name]
		if byVal == nil {
			return nil
		}
		// Copy: the posting list's backing array is shifted in place by
		// later inserts/removes, so it must never escape the lock.
		return append([]string(nil), byVal[p.val.String()]...)
	case predHas:
		byVal := db.inverted[p.name]
		if byVal == nil {
			return nil
		}
		var out []string
		for _, ids := range byVal {
			out = unionSorted(out, ids)
		}
		return out
	case predRange:
		byUnit := db.numeric[p.name]
		if byUnit == nil {
			return nil
		}
		entries := byUnit[p.unit]
		i := sort.Search(len(entries), func(i int) bool { return entries[i].value >= p.lo })
		var out []string
		for ; i < len(entries) && entries[i].value <= p.hi; i++ {
			out = append(out, entries[i].id)
		}
		sort.Strings(out)
		return dedupSorted(out)
	default:
		return nil
	}
}

// Stats summarizes index shape for diagnostics and benches.
type Stats struct {
	Descriptors   int
	IndexedAttrs  int
	PostingLists  int
	NumericIndex  int
	NumericValues int
}

// Stats reports index statistics.
func (db *DB) Stats() Stats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	s := Stats{
		Descriptors:  len(db.entries),
		IndexedAttrs: len(db.inverted),
		NumericIndex: len(db.numeric),
	}
	for _, byVal := range db.inverted {
		s.PostingLists += len(byVal)
	}
	for _, byUnit := range db.numeric {
		for _, entries := range byUnit {
			s.NumericValues += len(entries)
		}
	}
	return s
}

// --- sorted string-slice helpers ---

func insertSorted(s []string, v string) []string {
	i := sort.SearchStrings(s, v)
	if i < len(s) && s[i] == v {
		return s
	}
	s = append(s, "")
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func removeSorted(s []string, v string) []string {
	i := sort.SearchStrings(s, v)
	if i < len(s) && s[i] == v {
		return append(s[:i], s[i+1:]...)
	}
	return s
}

func intersectSorted(a, b []string) []string {
	var out []string
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return out
}

func unionSorted(a, b []string) []string {
	out := make([]string, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		default:
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

func dedupSorted(s []string) []string {
	if len(s) < 2 {
		return s
	}
	out := s[:1]
	for _, v := range s[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}
