package mark

import (
	"math"
	"sort"
	"time"
)

// Percentile returns the q-quantile (0 ≤ q ≤ 1) of an ascending slice by
// linear interpolation between closest ranks; an empty slice gives 0.
func Percentile(sorted []float64, q float64) float64 {
	switch n := len(sorted); {
	case n == 0:
		return 0
	case n == 1 || q <= 0:
		return sorted[0]
	case q >= 1:
		return sorted[n-1]
	default:
		pos := q * float64(n-1)
		lo := int(math.Floor(pos))
		frac := pos - float64(lo)
		if lo+1 >= n {
			return sorted[n-1]
		}
		return sorted[lo] + (sorted[lo+1]-sorted[lo])*frac
	}
}

// Sorted returns an ascending copy of vals.
func Sorted(vals []float64) []float64 {
	out := append([]float64(nil), vals...)
	sort.Float64s(out)
	return out
}

// Median returns the median of vals (unsorted input is fine).
func Median(vals []float64) float64 { return Percentile(Sorted(vals), 0.5) }

// Quartiles returns the three cut points Python's
// statistics.quantiles(vals, n=4) gives (the "exclusive" method), which
// is what the benchmark driver judges spread with. It needs two values.
func Quartiles(vals []float64) (q1, q2, q3 float64) {
	data := Sorted(vals)
	ld := len(data)
	if ld < 2 {
		if ld == 1 {
			return data[0], data[0], data[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (data[j-1]*float64(4-delta) + data[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// WindowRates splits a phase's completion times (offsets from the phase
// start, any order) into `windows` consecutive equal-count windows and
// returns each window's completions per second. Completions that do not
// fill the last window are left out, so every window holds the same
// count. Fewer completions than windows gives nil.
func WindowRates(ends []time.Duration, windows int) []float64 {
	if windows <= 0 || len(ends) < windows {
		return nil
	}
	sorted := append([]time.Duration(nil), ends...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	per := len(sorted) / windows
	rates := make([]float64, windows)
	var from time.Duration
	for w := 0; w < windows; w++ {
		to := sorted[(w+1)*per-1]
		if span := (to - from).Seconds(); span > 0 {
			rates[w] = float64(per) / span
		}
		from = to
	}
	return rates
}

// WindowPercentile cuts samples (in completion order) into `windows`
// consecutive equal-count windows, takes the q-quantile of each in
// milliseconds, and returns the median of those. Pooling every sample
// instead lets a burst that inflates one stretch of a run own the whole
// run's upper percentiles. Fewer samples than windows are pooled.
func WindowPercentile(samples []time.Duration, windows int, q float64) float64 {
	if windows <= 1 || len(samples) < windows {
		return Percentile(durationsMS(samples), q)
	}
	per := len(samples) / windows
	vals := make([]float64, windows)
	for w := range vals {
		vals[w] = Percentile(durationsMS(samples[w*per:(w+1)*per]), q)
	}
	return Median(vals)
}

// WindowSpread is (max−min)/median of the window rates: the run's own
// reading of how unevenly the host let it run.
func WindowSpread(rates []float64) float64 {
	if len(rates) == 0 {
		return 0
	}
	s := Sorted(rates)
	med := Percentile(s, 0.5)
	if med == 0 {
		return 0
	}
	return (s[len(s)-1] - s[0]) / med
}

// durationsMS converts to float milliseconds, ascending.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}
