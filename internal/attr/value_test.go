package attr

import (
	"strconv"
	"testing"
	"testing/quick"

	"repro/internal/units"
)

func TestValueKinds(t *testing.T) {
	cases := []struct {
		v    Value
		kind Kind
	}{
		{ID("video"), KindID},
		{String("hello world"), KindString},
		{Number(42), KindNumber},
		{Quantity(units.MS(100)), KindNumber},
		{VList(Number(1), Number(2)), KindList},
	}
	for _, c := range cases {
		if c.v.Kind() != c.kind {
			t.Errorf("%v: kind = %v, want %v", c.v, c.v.Kind(), c.kind)
		}
	}
}

func TestIDSanitization(t *testing.T) {
	v := ID("has space(and)parens\"quote")
	id, ok := v.AsID()
	if !ok {
		t.Fatal("not an ID")
	}
	for _, r := range id {
		switch r {
		case ' ', '(', ')', '"', '\t', '\n':
			t.Fatalf("ID %q retains forbidden rune %q", id, r)
		}
	}
}

func TestAccessorMismatches(t *testing.T) {
	if _, ok := ID("x").AsString(); ok {
		t.Error("ID answered AsString")
	}
	if _, ok := String("x").AsID(); ok {
		t.Error("String answered AsID")
	}
	if _, ok := Number(1).AsList(); ok {
		t.Error("Number answered AsList")
	}
	if _, ok := VList().AsNumber(); ok {
		t.Error("List answered AsNumber")
	}
	if _, ok := Quantity(units.Sec(1)).AsInt(); ok {
		t.Error("unit-carrying number answered AsInt")
	}
	if n, ok := Number(7).AsInt(); !ok || n != 7 {
		t.Errorf("Number(7).AsInt() = %d, %v", n, ok)
	}
}

func TestValueEqual(t *testing.T) {
	a := ListOf(Named("x", Number(1)), Item{Value: String("s")})
	b := ListOf(Named("x", Number(1)), Item{Value: String("s")})
	if !a.Equal(b) {
		t.Error("identical lists not equal")
	}
	c := ListOf(Named("y", Number(1)), Item{Value: String("s")})
	if a.Equal(c) {
		t.Error("lists with different item names equal")
	}
	if Number(1).Equal(String("1")) {
		t.Error("cross-kind equality")
	}
	if !Quantity(units.MS(5)).Equal(Quantity(units.MS(5))) {
		t.Error("equal quantities not equal")
	}
	if Quantity(units.MS(5)).Equal(Quantity(units.Sec(5))) {
		t.Error("different units equal")
	}
}

func TestValueCloneIsDeep(t *testing.T) {
	inner := VList(Number(1))
	outer := ListOf(Named("inner", inner))
	clone := outer.Clone()
	// Mutate the clone's nested list; original must be unaffected.
	items, _ := clone.AsList()
	items[0].Name = "mutated"
	origItems, _ := outer.AsList()
	if origItems[0].Name != "inner" {
		t.Error("clone shares item storage with original")
	}
}

func TestQuoteUnquoteRoundTrip(t *testing.T) {
	f := func(s string) bool {
		got, err := strconv.Unquote(quote(s))
		return err == nil && got == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValueStringForms(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{ID("video"), "video"},
		{ID(""), "-"},
		{Number(42), "42"},
		{Quantity(units.MS(-40)), "-40ms"},
		{String(`say "hi"`), `"say \"hi\""`},
		{VList(Number(1), ID("x")), "[1 x]"},
		{ListOf(Named("min", Number(0)), Named("max", Quantity(units.Sec(2)))),
			"[(min 0) (max 2s)]"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestTextAccessor(t *testing.T) {
	if s, ok := ID("x").Text(); !ok || s != "x" {
		t.Error("ID Text failed")
	}
	if s, ok := String("y").Text(); !ok || s != "y" {
		t.Error("String Text failed")
	}
	if s, ok := Number(3).Text(); !ok || s != "3" {
		t.Error("Number Text failed")
	}
	if _, ok := VList().Text(); ok {
		t.Error("List Text should fail")
	}
}
