package ddbms

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/attr"
	"repro/internal/units"
)

// TestDBConcurrentHammer drives the database from parallel
// goroutines mixing inserts, upserts, deletes and every query shape; run
// with -race it proves the locking is sound, and the final
// consistency sweep proves the indexes match the entries.
func TestDBConcurrentHammer(t *testing.T) {
	db := New()
	const (
		workers = 16
		rounds  = 150
	)
	// Stable descriptors every worker queries.
	for i := 0; i < 32; i++ {
		desc := attr.List{}
		desc.Set("medium", attr.ID("video"))
		desc.Set("duration", attr.Quantity(units.Sec(int64(i%10+1))))
		if err := db.Insert(fmt.Sprintf("stable-%02d", i), desc); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				id := fmt.Sprintf("w%d-%04d", w, i)
				switch i % 5 {
				case 0:
					desc := attr.List{}
					desc.Set("medium", attr.ID("audio"))
					desc.Set("duration", attr.Quantity(units.Sec(int64(i%20))))
					if err := db.Insert(id, desc); err != nil {
						t.Errorf("Insert(%q): %v", id, err)
						return
					}
				case 1:
					desc := attr.List{}
					desc.Set("medium", attr.ID("image"))
					db.Upsert(fmt.Sprintf("w%d-upsert", w), desc)
				case 2:
					got := db.Select(Eq("medium", attr.ID("video")))
					if len(got) < 32 {
						t.Errorf("Select(video) = %d ids, want >= 32", len(got))
						return
					}
				case 3:
					db.Select(Range("duration", 2, 5, units.Seconds), Has("medium"))
					db.Stats()
				case 4:
					tmp := fmt.Sprintf("tmp-w%d-%04d", w, i)
					desc := attr.List{}
					desc.Set("medium", attr.ID("text"))
					if err := db.Insert(tmp, desc); err != nil {
						t.Errorf("Insert(%q): %v", tmp, err)
						return
					}
					if !db.Delete(tmp) {
						t.Errorf("Delete(%q) = false", tmp)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	// Indexed selects must agree with the linear scan after the churn.
	for _, preds := range [][]Pred{
		{Eq("medium", attr.ID("video"))},
		{Has("duration")},
		{Range("duration", 1, 8, units.Seconds)},
		{Eq("medium", attr.ID("audio")), Range("duration", 0, 19, units.Seconds)},
	} {
		indexed := db.Select(preds...)
		linear := db.SelectLinear(preds...)
		if len(indexed) != len(linear) {
			t.Errorf("Select %v: indexed %d ids, linear %d", preds, len(indexed), len(linear))
			continue
		}
		for i := range indexed {
			if indexed[i] != linear[i] {
				t.Errorf("Select %v: mismatch at %d: %q vs %q", preds, i, indexed[i], linear[i])
				break
			}
		}
	}
	if st := db.Stats(); st.Descriptors != db.Len() {
		t.Errorf("Stats.Descriptors = %d, Len = %d", st.Descriptors, db.Len())
	}
}
