package mark

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	vals := []float64{10, 20, 30, 40, 50}
	for _, tc := range []struct{ q, want float64 }{
		{0, 10}, {0.5, 30}, {0.9, 46}, {1, 50}, {0.25, 20}, {0.125, 15},
	} {
		if got := Percentile(vals, tc.q); !near(got, tc.want) {
			t.Errorf("Percentile(q=%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := Percentile(nil, 0.5); got != 0 {
		t.Errorf("empty input: %v", got)
	}
	if got := Percentile([]float64{7}, 0.9); got != 7 {
		t.Errorf("single value: %v", got)
	}
	if got := Median([]float64{9, 1, 5, 3}); !near(got, 4) {
		t.Errorf("Median of unsorted even input = %v, want 4", got)
	}
}

// The cut points must be Python's statistics.quantiles(data, n=4): the
// driver computes spreads with them.
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := Quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if !near(q1, 2.75) || !near(q2, 5.5) || !near(q3, 8.25) {
		t.Errorf("ten values: %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = Quartiles([]float64{1, 2, 4, 8, 16})
	if !near(q1, 1.5) || !near(q2, 4) || !near(q3, 12) {
		t.Errorf("five values: %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([3, 5], n=4) == [2.5, 4.0, 5.5]
	q1, q2, q3 = Quartiles([]float64{3, 5})
	if !near(q1, 2.5) || !near(q2, 4) || !near(q3, 5.5) {
		t.Errorf("two values: %v %v %v", q1, q2, q3)
	}
}

func TestWindowRates(t *testing.T) {
	// 9 ops: three at 1/s, three packed into one second, three at 1/s.
	secs := []float64{1, 2, 3, 3.25, 3.5, 4, 5, 6, 7}
	var ends []time.Duration
	for i := len(secs) - 1; i >= 0; i-- { // any order
		ends = append(ends, time.Duration(secs[i]*float64(time.Second)))
	}
	rates := WindowRates(ends, 3)
	want := []float64{1, 3, 1}
	for i := range want {
		if !near(rates[i], want[i]) {
			t.Fatalf("rates = %v, want %v", rates, want)
		}
	}
	// The burst moves the mean, not the median of windows.
	if got := Median(rates); !near(got, 1) {
		t.Errorf("median of windows = %v, want 1", got)
	}
	if got := WindowSpread(rates); !near(got, 2) {
		t.Errorf("spread = %v, want (3-1)/1", got)
	}
	// 10 completions in 3 windows: equal counts of 3, the tenth left out.
	if got := WindowRates(append(ends, 100*time.Second), 3); !near(got[2], 1) {
		t.Errorf("leftover completion entered a window: %v", got)
	}
	if WindowRates(ends[:2], 3) != nil {
		t.Error("fewer completions than windows must give nil")
	}
}

func TestWindowPercentile(t *testing.T) {
	// Three windows of four: the middle one is hit by a burst.
	ms := []float64{1, 2, 3, 4, 50, 60, 70, 80, 1, 2, 3, 4}
	var samples []time.Duration
	for _, v := range ms {
		samples = append(samples, time.Duration(v*float64(time.Millisecond)))
	}
	if got := WindowPercentile(samples, 3, 0.5); !near(got, 2.5) {
		t.Errorf("windowed median = %v, want 2.5", got)
	}
	// Pooled, the burst owns the upper percentiles; windowed, it does not.
	if pooled := Percentile(durationsMS(samples), 0.9); pooled < 50 {
		t.Errorf("pooled p90 = %v", pooled)
	}
	if got := WindowPercentile(samples, 3, 0.9); !near(got, 3.7) {
		t.Errorf("windowed p90 = %v, want 3.7", got)
	}
	if got := WindowPercentile(samples[:2], 3, 0.5); !near(got, 1.5) {
		t.Errorf("too few samples must pool: %v", got)
	}
}
