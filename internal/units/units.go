// Package units implements the media-dependent quantities used throughout
// CMIF documents. The paper (section 5.3.2) allows synchronization offsets to
// be "expressed in terms of media-dependent units (such as seconds, frames,
// bytes, etc.)" and names resolution of such units across environments as a
// first-order transportability problem (section 6). A Quantity is a value
// plus a unit; a Resolver carries the per-medium rates needed to convert any
// quantity to canonical document time.
package units

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Unit enumerates the media-dependent units a CMIF attribute value may carry.
type Unit int

const (
	// None marks a dimensionless number (counts, sizes without rate).
	None Unit = iota
	// Millis is milliseconds of document time.
	Millis
	// Seconds is seconds of document time.
	Seconds
	// Frames counts video frames; conversion needs a frame rate.
	Frames
	// Bytes counts payload bytes; conversion needs a byte rate.
	Bytes
	// Samples counts audio samples; conversion needs a sample rate.
	Samples
)

var unitNames = map[Unit]string{
	None:    "",
	Millis:  "ms",
	Seconds: "s",
	Frames:  "fr",
	Bytes:   "by",
	Samples: "sa",
}

var unitFromName = map[string]Unit{
	"":   None,
	"ms": Millis,
	"s":  Seconds,
	"fr": Frames,
	"by": Bytes,
	"sa": Samples,
}

// String returns the canonical suffix for u ("ms", "s", "fr", "by", "sa").
func (u Unit) String() string {
	if n, ok := unitNames[u]; ok {
		return n
	}
	return fmt.Sprintf("unit(%d)", int(u))
}

// ParseUnit maps a suffix to its Unit. The empty suffix is None.
func ParseUnit(s string) (Unit, error) {
	if u, ok := unitFromName[s]; ok {
		return u, nil
	}
	return None, fmt.Errorf("units: unknown unit suffix %q", s)
}

// Quantity is a scalar with a media-dependent unit. Values are kept as int64
// in the unit's own granularity so that documents round-trip losslessly.
type Quantity struct {
	Value int64
	Unit  Unit
}

// Q builds a Quantity.
func Q(v int64, u Unit) Quantity { return Quantity{Value: v, Unit: u} }

// MS builds a millisecond quantity.
func MS(v int64) Quantity { return Quantity{Value: v, Unit: Millis} }

// Sec builds a seconds quantity.
func Sec(v int64) Quantity { return Quantity{Value: v, Unit: Seconds} }

// String renders the quantity with its unit suffix, e.g. "1500ms", "25fr".
func (q Quantity) String() string {
	return strconv.FormatInt(q.Value, 10) + q.Unit.String()
}

// IsZero reports whether the quantity has value zero (any unit).
func (q Quantity) IsZero() bool { return q.Value == 0 }

// Parse parses a textual quantity: an optionally signed integer followed by
// an optional unit suffix, e.g. "-40ms", "25fr", "3".
func Parse(s string) (Quantity, error) {
	i := 0
	if i < len(s) && (s[i] == '+' || s[i] == '-') {
		i++
	}
	j := i
	for j < len(s) && s[j] >= '0' && s[j] <= '9' {
		j++
	}
	if j == i {
		return Quantity{}, fmt.Errorf("units: %q has no numeric part", s)
	}
	v, err := strconv.ParseInt(s[:j], 10, 64)
	if err != nil {
		return Quantity{}, fmt.Errorf("units: bad number in %q: %w", s, err)
	}
	u, err := ParseUnit(strings.TrimSpace(s[j:]))
	if err != nil {
		return Quantity{}, err
	}
	return Quantity{Value: v, Unit: u}, nil
}

// Rates carries the per-medium conversion rates needed to turn frames, bytes
// and samples into document time. Zero-valued rates mean "unknown".
type Rates struct {
	// FrameRate is frames per second (e.g. 25 for PAL video).
	FrameRate int64
	// SampleRate is audio samples per second (e.g. 8000).
	SampleRate int64
	// ByteRate is payload bytes per second (a transfer/consumption rate).
	ByteRate int64
}

// ErrNoRate is wrapped by conversion errors when a needed rate is unknown.
var ErrNoRate = errors.New("units: conversion rate unknown")

// Resolver converts Quantities to canonical time using a Rates table.
type Resolver struct {
	Rates Rates
}

// NewResolver returns a Resolver over the given rates.
func NewResolver(r Rates) *Resolver { return &Resolver{Rates: r} }

// Duration converts q to a time.Duration of document time.
// Dimensionless values are treated as milliseconds, matching the paper's
// habit of leaving small offsets unit-free.
func (r *Resolver) Duration(q Quantity) (time.Duration, error) {
	switch q.Unit {
	case None, Millis:
		return time.Duration(q.Value) * time.Millisecond, nil
	case Seconds:
		return time.Duration(q.Value) * time.Second, nil
	case Frames:
		if r == nil || r.Rates.FrameRate <= 0 {
			return 0, fmt.Errorf("%w: frames need FrameRate", ErrNoRate)
		}
		return scale(q.Value, r.Rates.FrameRate), nil
	case Samples:
		if r == nil || r.Rates.SampleRate <= 0 {
			return 0, fmt.Errorf("%w: samples need SampleRate", ErrNoRate)
		}
		return scale(q.Value, r.Rates.SampleRate), nil
	case Bytes:
		if r == nil || r.Rates.ByteRate <= 0 {
			return 0, fmt.Errorf("%w: bytes need ByteRate", ErrNoRate)
		}
		return scale(q.Value, r.Rates.ByteRate), nil
	default:
		return 0, fmt.Errorf("units: cannot convert %v", q)
	}
}

// scale converts count units at rate-per-second into a duration, rounding to
// the nearest nanosecond and preserving sign.
func scale(count, perSecond int64) time.Duration {
	// count/perSecond seconds == count*1e9/perSecond nanoseconds.
	whole := count / perSecond
	rem := count % perSecond
	return time.Duration(whole)*time.Second +
		time.Duration(rem*int64(time.Second)/perSecond)
}

// Infinite is the sentinel used for "maximum tolerable delay = infinite"
// (section 5.3.1 allows a possibly infinite maximum delay).
const Infinite = int64(1) << 62

// IsInfinite reports whether q encodes the infinite-delay sentinel.
func IsInfinite(q Quantity) bool { return q.Value >= Infinite }

// InfiniteQuantity returns the canonical infinite maximum-delay quantity.
func InfiniteQuantity() Quantity { return Quantity{Value: Infinite, Unit: Millis} }
