package units

import (
	"errors"
	"testing"
	"testing/quick"
	"time"
)

func TestParseUnit(t *testing.T) {
	cases := []struct {
		in   string
		want Unit
		ok   bool
	}{
		{"", None, true},
		{"ms", Millis, true},
		{"s", Seconds, true},
		{"fr", Frames, true},
		{"by", Bytes, true},
		{"sa", Samples, true},
		{"minutes", None, false},
		{"MS", None, false},
	}
	for _, c := range cases {
		got, err := ParseUnit(c.in)
		if c.ok && err != nil {
			t.Errorf("ParseUnit(%q): unexpected error %v", c.in, err)
			continue
		}
		if !c.ok {
			if err == nil {
				t.Errorf("ParseUnit(%q): want error", c.in)
			}
			continue
		}
		if got != c.want {
			t.Errorf("ParseUnit(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestParseQuantity(t *testing.T) {
	cases := []struct {
		in   string
		want Quantity
		ok   bool
	}{
		{"1500ms", Q(1500, Millis), true},
		{"-40ms", Q(-40, Millis), true},
		{"+3s", Q(3, Seconds), true},
		{"25fr", Q(25, Frames), true},
		{"8000sa", Q(8000, Samples), true},
		{"1024by", Q(1024, Bytes), true},
		{"7", Q(7, None), true},
		{"ms", Quantity{}, false},
		{"", Quantity{}, false},
		{"12parsec", Quantity{}, false},
	}
	for _, c := range cases {
		got, err := Parse(c.in)
		if c.ok != (err == nil) {
			t.Errorf("Parse(%q): err=%v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("Parse(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestQuantityStringRoundTrip(t *testing.T) {
	f := func(v int64, u uint8) bool {
		unit := Unit(int(u) % 6)
		q := Q(v%1e12, unit)
		back, err := Parse(q.String())
		return err == nil && back == q
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDurationConversions(t *testing.T) {
	r := NewResolver(Rates{FrameRate: 25, SampleRate: 8000, ByteRate: 1 << 20})
	cases := []struct {
		q    Quantity
		want time.Duration
	}{
		{MS(1500), 1500 * time.Millisecond},
		{Sec(3), 3 * time.Second},
		{Q(25, Frames), time.Second},
		{Q(5, Frames), 200 * time.Millisecond},
		{Q(8000, Samples), time.Second},
		{Q(4000, Samples), 500 * time.Millisecond},
		{Q(1<<20, Bytes), time.Second},
		{Q(7, None), 7 * time.Millisecond},
		{Q(-25, Frames), -time.Second},
	}
	for _, c := range cases {
		got, err := r.Duration(c.q)
		if err != nil {
			t.Errorf("Duration(%v): %v", c.q, err)
			continue
		}
		if got != c.want {
			t.Errorf("Duration(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestDurationMissingRate(t *testing.T) {
	r := NewResolver(Rates{})
	for _, q := range []Quantity{Q(1, Frames), Q(1, Samples), Q(1, Bytes)} {
		if _, err := r.Duration(q); !errors.Is(err, ErrNoRate) {
			t.Errorf("Duration(%v): want ErrNoRate, got %v", q, err)
		}
	}
	// Time units never need a rate, even on a nil resolver.
	var nilr *Resolver
	if d, err := nilr.Duration(MS(10)); err != nil || d != 10*time.Millisecond {
		t.Errorf("nil resolver Duration(10ms) = %v, %v", d, err)
	}
}

func TestFromDurationInverse(t *testing.T) {
	r := NewResolver(Rates{FrameRate: 25, SampleRate: 8000, ByteRate: 25000})
	for _, u := range []Unit{Millis, Seconds, Frames, Samples, Bytes} {
		u := u
		f := func(raw int32) bool {
			v := int64(raw % 100000)
			if v < 0 {
				v = -v
			}
			q := Q(v, u)
			d, err := r.Duration(q)
			if err != nil {
				return false
			}
			back := fromDuration(r, d, u)
			// Round-trip is exact because all rates divide the second.
			return back.Value == v && back.Unit == u
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("unit %v: %v", u, err)
		}
	}
}

// fromDuration converts d back into unit u at r's rates, rounding toward
// zero: the inverse of Resolver.Duration up to unit granularity.
func fromDuration(r *Resolver, d time.Duration, u Unit) Quantity {
	perSecond := map[Unit]int64{Millis: 1000, Seconds: 1,
		Frames: r.Rates.FrameRate, Samples: r.Rates.SampleRate, Bytes: r.Rates.ByteRate}[u]
	sec, rem := int64(d/time.Second), int64(d%time.Second)
	return Q(sec*perSecond+rem*perSecond/int64(time.Second), u)
}

func TestInfiniteSentinel(t *testing.T) {
	if !IsInfinite(InfiniteQuantity()) {
		t.Error("InfiniteQuantity not detected as infinite")
	}
	if IsInfinite(MS(1 << 40)) {
		t.Error("large finite quantity misdetected as infinite")
	}
}

func TestScaleNegativeAndFractional(t *testing.T) {
	// 3 frames at 25fps = 120ms exactly.
	r := NewResolver(Rates{FrameRate: 25})
	d, err := r.Duration(Q(3, Frames))
	if err != nil || d != 120*time.Millisecond {
		t.Fatalf("3fr@25 = %v, %v; want 120ms", d, err)
	}
	// Non-divisible rate: 1 frame at 30fps = 33.333...ms.
	r = NewResolver(Rates{FrameRate: 30})
	d, err = r.Duration(Q(1, Frames))
	if err != nil {
		t.Fatal(err)
	}
	want := time.Second / 30
	if d != want {
		t.Fatalf("1fr@30 = %v, want %v", d, want)
	}
}
