package attr

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestNewListRejectsDuplicates(t *testing.T) {
	_, err := NewList(P("a", Number(1)), P("b", Number(2)), P("a", Number(3)))
	if err == nil {
		t.Fatal("duplicate attribute names accepted")
	}
}

func TestListGetSetDel(t *testing.T) {
	var l List
	l.Set("channel", ID("video"))
	l.Set("name", String("intro"))
	if l.Len() != 2 {
		t.Fatalf("Len = %d, want 2", l.Len())
	}
	if v, ok := l.GetID("channel"); !ok || v != "video" {
		t.Errorf("GetID(channel) = %q, %v", v, ok)
	}
	// Replace keeps position and count.
	l.Set("channel", ID("audio"))
	if l.Len() != 2 {
		t.Fatalf("Len after replace = %d, want 2", l.Len())
	}
	if got := l.Names(); !reflect.DeepEqual(got, []string{"channel", "name"}) {
		t.Errorf("Names = %v", got)
	}
	if !l.Del("channel") {
		t.Error("Del(channel) = false")
	}
	if l.Del("channel") {
		t.Error("second Del(channel) = true")
	}
	if l.Has("channel") {
		t.Error("deleted attribute still present")
	}
}

func TestSetDefault(t *testing.T) {
	var l List
	l.Set("font", ID("times"))
	if l.SetDefault("font", ID("helvetica")) {
		t.Error("SetDefault overwrote existing attribute")
	}
	if v, _ := l.GetID("font"); v != "times" {
		t.Errorf("font = %q, want times", v)
	}
	if !l.SetDefault("size", Number(12)) {
		t.Error("SetDefault failed to add new attribute")
	}
}

func TestListCloneIndependence(t *testing.T) {
	orig := MustList(P("a", Number(1)), P("nested", VList(ID("x"))))
	c := orig.Clone()
	c.Set("a", Number(99))
	c.Set("new", Number(3))
	if v, _ := orig.GetInt("a"); v != 1 {
		t.Error("clone mutation leaked into original scalar")
	}
	if orig.Has("new") {
		t.Error("clone append leaked into original")
	}
}

func TestListEqualOrderSensitive(t *testing.T) {
	a := MustList(P("x", Number(1)), P("y", Number(2)))
	b := MustList(P("y", Number(2)), P("x", Number(1)))
	if a.Equal(b) {
		t.Error("order-insensitive equality")
	}
	if !a.Equal(a.Clone()) {
		t.Error("clone not equal to original")
	}
}

func TestTypedGettersAbsent(t *testing.T) {
	var l List
	if _, ok := l.GetID("x"); ok {
		t.Error("GetID on empty list")
	}
	if _, ok := l.GetString("x"); ok {
		t.Error("GetString on empty list")
	}
	if _, ok := l.GetInt("x"); ok {
		t.Error("GetInt on empty list")
	}
	if _, ok := l.GetList("x"); ok {
		t.Error("GetList on empty list")
	}
}

func TestListStringRendering(t *testing.T) {
	l := MustList(P("name", String("story one")), P("channel", ID("video")))
	want := `(name "story one") (channel video)`
	if got := l.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// Property: Set then Get returns what was set, and never introduces
// duplicates regardless of operation order.
func TestSetGetProperty(t *testing.T) {
	f := func(names []string, pick uint8) bool {
		if len(names) == 0 {
			return true
		}
		var l List
		for i, n := range names {
			l.Set(n, Number(int64(i)))
		}
		// Uniqueness invariant.
		seen := map[string]bool{}
		for _, n := range l.Names() {
			if seen[n] {
				return false
			}
			seen[n] = true
		}
		// Last write wins.
		target := names[int(pick)%len(names)]
		lastIdx := -1
		for i, n := range names {
			if n == target {
				lastIdx = i
			}
		}
		v, ok := l.GetInt(target)
		return ok && v == int64(lastIdx)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
