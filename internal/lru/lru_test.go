package lru

import (
	"reflect"
	"testing"
)

// TestCache drives the core through scripts of operations and compares
// the residents (least recently used first), the charged cost and the
// order in which the evict hook fired.
func TestCache(t *testing.T) {
	type op struct {
		do    string // add, get, remove, charge
		key   string
		val   int64 // add: the value, which is also its cost under byCost
		admit bool  // add: the expected result
	}
	one := func(int64) int64 { return 1 }
	byCost := func(v int64) int64 { return v }
	cases := []struct {
		name    string
		budget  int64
		cost    func(int64) int64
		release map[string]int64 // evict hook: Charge(-release[key])
		ops     []op
		want    []string // residents, oldest first
		used    int64
		evicted []string
	}{
		{
			name: "count budget evicts the least recently used", budget: 2, cost: one,
			ops:  []op{{"add", "a", 10, true}, {"add", "b", 20, true}, {"get", "a", 0, false}, {"add", "c", 30, true}},
			want: []string{"a", "c"}, used: 2, evicted: []string{"b"},
		},
		{
			name: "byte budget evicts until the new value fits", budget: 10, cost: byCost,
			ops:  []op{{"add", "a", 4, true}, {"add", "b", 4, true}, {"add", "c", 7, true}},
			want: []string{"c"}, used: 7, evicted: []string{"a", "b"},
		},
		{
			name: "a value costlier than the whole budget is not admitted", budget: 10, cost: byCost,
			ops:  []op{{"add", "a", 4, true}, {"add", "huge", 11, false}},
			want: []string{"a"}, used: 4,
		},
		{
			name: "re-Add refreshes recency and re-prices without double-charging", budget: 10, cost: byCost,
			ops:  []op{{"add", "a", 4, true}, {"add", "b", 3, true}, {"add", "a", 5, true}, {"add", "c", 3, true}},
			want: []string{"a", "c"}, used: 8, evicted: []string{"b"},
		},
		{
			name: "Remove uncharges without the hook", budget: 10, cost: byCost,
			ops:  []op{{"add", "a", 4, true}, {"add", "b", 4, true}, {"remove", "a", 0, false}, {"add", "c", 6, true}},
			want: []string{"b", "c"}, used: 10,
		},
		{
			name: "Charge counts against the same budget", budget: 10, cost: byCost,
			ops:  []op{{"add", "a", 3, true}, {"add", "b", 3, true}, {"charge", "", 5, false}},
			want: []string{"b"}, used: 8, evicted: []string{"a"},
		},
		{
			// a kept 6 shared bytes alive; evicting it releases them, which
			// is enough, so b survives.
			name: "the evict hook may release charged bytes", budget: 10, cost: byCost,
			release: map[string]int64{"a": 6},
			ops:     []op{{"charge", "", 6, false}, {"add", "a", 2, true}, {"add", "b", 2, true}, {"add", "c", 2, true}},
			want:    []string{"b", "c"}, used: 4, evicted: []string{"a"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var c *Cache[string, int64]
			var evicted []string
			c = New(tc.budget, tc.cost, func(k string, v int64) {
				evicted = append(evicted, k)
				c.Charge(-tc.release[k])
			})
			for i, o := range tc.ops {
				switch o.do {
				case "add":
					if got := c.Add(o.key, o.val); got != o.admit {
						t.Fatalf("op %d: Add(%s, %d) = %v, want %v", i, o.key, o.val, got, o.admit)
					}
				case "get":
					if _, ok := c.Get(o.key); !ok {
						t.Fatalf("op %d: Get(%s) missed", i, o.key)
					}
				case "remove":
					if _, ok := c.Remove(o.key); !ok {
						t.Fatalf("op %d: Remove(%s) missed", i, o.key)
					}
				case "charge":
					c.Charge(o.val)
				}
			}
			var residents []string
			for el := c.order.Back(); el != nil; el = el.Prev() {
				k := el.Value.(*entry[string, int64]).key
				if !c.Contains(k) {
					t.Errorf("%s is on the list but not in the map", k)
				}
				residents = append(residents, k)
			}
			if !reflect.DeepEqual(residents, tc.want) || c.Len() != len(tc.want) || len(c.items) != len(tc.want) {
				t.Errorf("residents = %v (Len %d, map %d), want %v", residents, c.Len(), len(c.items), tc.want)
			}
			if c.Used() != tc.used || c.Budget() != tc.budget {
				t.Errorf("used %d of %d, want %d of %d", c.Used(), c.Budget(), tc.used, tc.budget)
			}
			if !reflect.DeepEqual(evicted, tc.evicted) || c.Evictions() != int64(len(tc.evicted)) {
				t.Errorf("evicted %v (count %d), want %v", evicted, c.Evictions(), tc.evicted)
			}
		})
	}
}
