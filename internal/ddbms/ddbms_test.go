package ddbms

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/attr"
	"repro/internal/units"
)

// fill inserts n synthetic video/audio descriptors.
func fill(t testing.TB, db *DB, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		medium := "video"
		if i%3 == 0 {
			medium = "audio"
		}
		desc := attr.MustList(
			attr.P("medium", attr.ID(medium)),
			attr.P("width", attr.Number(int64(160+(i%8)*40))),
			attr.P("duration", attr.Quantity(units.MS(int64(i)*100))),
			attr.P("title", attr.String(fmt.Sprintf("block %d", i))),
		)
		if err := db.Insert(fmt.Sprintf("b%04d", i), desc); err != nil {
			t.Fatal(err)
		}
	}
}

func TestInsertGetDelete(t *testing.T) {
	db := New()
	desc := attr.MustList(attr.P("medium", attr.ID("video")))
	if err := db.Insert("a", desc); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("a", desc); err == nil {
		t.Error("duplicate insert accepted")
	}
	got, ok := db.Get("a")
	if !ok || !got.Equal(desc) {
		t.Errorf("Get = %v, %v", got, ok)
	}
	if _, ok := db.Get("z"); ok {
		t.Error("phantom Get")
	}
	if !db.Delete("a") || db.Delete("a") {
		t.Error("Delete semantics")
	}
	if db.Len() != 0 {
		t.Errorf("Len = %d", db.Len())
	}
}

func TestGetIsolation(t *testing.T) {
	db := New()
	desc := attr.MustList(attr.P("x", attr.Number(1)))
	db.Insert("a", desc)
	got, _ := db.Get("a")
	got.Set("x", attr.Number(99))
	again, _ := db.Get("a")
	if v, _ := again.GetInt("x"); v != 1 {
		t.Error("Get returns shared storage")
	}
}

func TestSelectEq(t *testing.T) {
	db := New()
	fill(t, db, 30)
	audio := db.Select(Eq("medium", attr.ID("audio")))
	if len(audio) != 10 {
		t.Errorf("audio count = %d, want 10", len(audio))
	}
	for _, id := range audio {
		d, _ := db.Get(id)
		if m, _ := d.GetID("medium"); m != "audio" {
			t.Errorf("%s: medium = %q", id, m)
		}
	}
	// Sorted output.
	if !sortedStrings(audio) {
		t.Error("result not sorted")
	}
}

func TestSelectConjunction(t *testing.T) {
	db := New()
	fill(t, db, 64)
	got := db.Select(
		Eq("medium", attr.ID("video")),
		Eq("width", attr.Number(200)),
	)
	want := db.SelectLinear(
		Eq("medium", attr.ID("video")),
		Eq("width", attr.Number(200)),
	)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("indexed %v != linear %v", got, want)
	}
	if len(got) == 0 {
		t.Error("conjunction empty; fixture wrong")
	}
}

func TestSelectRange(t *testing.T) {
	db := New()
	fill(t, db, 50)
	got := db.Select(Range("duration", 1000, 2000, units.Millis))
	// durations are i*100ms: ids 10..20 inclusive.
	if len(got) != 11 {
		t.Errorf("range matched %d, want 11: %v", len(got), got)
	}
	want := db.SelectLinear(Range("duration", 1000, 2000, units.Millis))
	if !reflect.DeepEqual(got, want) {
		t.Errorf("indexed %v != linear %v", got, want)
	}
	// Unit mismatch matches nothing.
	if got := db.Select(Range("duration", 1, 2, units.Seconds)); len(got) != 0 {
		t.Errorf("cross-unit range matched %v", got)
	}
}

func TestSelectHas(t *testing.T) {
	db := New()
	fill(t, db, 10)
	db.Insert("bare", attr.MustList(attr.P("medium", attr.ID("text"))))
	got := db.Select(Has("width"))
	if len(got) != 10 {
		t.Errorf("Has(width) = %d, want 10", len(got))
	}
	if got := db.Select(Has("nonexistent")); len(got) != 0 {
		t.Errorf("Has(nonexistent) = %v", got)
	}
}

func TestSelectEmptyPredicatesMatchesAll(t *testing.T) {
	db := New()
	fill(t, db, 5)
	if got := db.Select(); len(got) != 5 {
		t.Errorf("empty Select = %d", len(got))
	}
}

func TestUpsertReindexes(t *testing.T) {
	db := New()
	db.Insert("a", attr.MustList(attr.P("medium", attr.ID("video"))))
	db.Upsert("a", attr.MustList(attr.P("medium", attr.ID("audio"))))
	if got := db.Select(Eq("medium", attr.ID("video"))); len(got) != 0 {
		t.Errorf("stale index entry: %v", got)
	}
	if got := db.Select(Eq("medium", attr.ID("audio"))); len(got) != 1 {
		t.Errorf("new index entry missing: %v", got)
	}
	// Upsert of a fresh id inserts.
	db.Upsert("b", attr.MustList(attr.P("medium", attr.ID("text"))))
	if db.Len() != 2 {
		t.Errorf("Len = %d", db.Len())
	}
}

func TestDeleteUnindexes(t *testing.T) {
	db := New()
	fill(t, db, 20)
	victims := db.Select(Eq("medium", attr.ID("audio")))
	for _, id := range victims {
		db.Delete(id)
	}
	if got := db.Select(Eq("medium", attr.ID("audio"))); len(got) != 0 {
		t.Errorf("deleted ids still indexed: %v", got)
	}
	if got := db.Select(Range("duration", 0, 1<<40, units.Millis)); len(got) != db.Len() {
		t.Errorf("numeric index stale after delete: %d vs %d", len(got), db.Len())
	}
}

func TestIndexedMatchesLinearProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	db := New()
	media := []string{"video", "audio", "text", "image"}
	for i := 0; i < 200; i++ {
		desc := attr.MustList(
			attr.P("medium", attr.ID(media[rng.Intn(4)])),
			attr.P("width", attr.Number(int64(rng.Intn(5))*100)),
			attr.P("duration", attr.Quantity(units.MS(int64(rng.Intn(1000))))),
		)
		db.Insert(fmt.Sprintf("r%03d", i), desc)
	}
	for trial := 0; trial < 50; trial++ {
		preds := []Pred{}
		if rng.Intn(2) == 0 {
			preds = append(preds, Eq("medium", attr.ID(media[rng.Intn(4)])))
		}
		if rng.Intn(2) == 0 {
			lo := int64(rng.Intn(500))
			preds = append(preds, Range("duration", lo, lo+int64(rng.Intn(500)), units.Millis))
		}
		if rng.Intn(3) == 0 {
			preds = append(preds, Has("width"))
		}
		got := db.Select(preds...)
		want := db.SelectLinear(preds...)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: indexed %v != linear %v (preds %+v)", trial, got, want, preds)
		}
	}
}

func TestIDsAndStats(t *testing.T) {
	db := New()
	fill(t, db, 12)
	ids := db.Select()
	if len(ids) != 12 || !sortedStrings(ids) {
		t.Errorf("Select() = %v", ids)
	}
	// fill's 12 descriptors: 2 media, 8 widths, 12 durations, 12 titles.
	want := Stats{Descriptors: 12, IndexedAttrs: 4, PostingLists: 2 + 8 + 12 + 12, NumericIndex: 2, NumericValues: 24}
	if s := db.Stats(); s != want {
		t.Errorf("Stats = %+v, want %+v", s, want)
	}
}

func TestConcurrentAccess(t *testing.T) {
	db := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				id := fmt.Sprintf("w%d-%d", w, i)
				db.Upsert(id, attr.MustList(
					attr.P("medium", attr.ID("video")),
					attr.P("duration", attr.Quantity(units.MS(int64(i)))),
				))
				db.Select(Eq("medium", attr.ID("video")))
				db.Get(id)
			}
		}(w)
	}
	wg.Wait()
	if db.Len() != 8*40 {
		t.Errorf("Len = %d", db.Len())
	}
}

func sortedStrings(s []string) bool {
	for i := 1; i < len(s); i++ {
		if s[i-1] > s[i] {
			return false
		}
	}
	return true
}
