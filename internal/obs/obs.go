// Package obs is the repository's zero-dependency instrumentation layer:
// counters, gauges, and fixed-bucket histograms with a consistent snapshot
// API, a Registry that names and aggregates them, and the Recorder
// interface the rest of the stack records through.
//
// The design goal is that instrumentation is *free when disabled and inert
// when enabled*: every instrumented component holds a Recorder and guards
// each recording site with a single nil check, and recording never feeds
// back into the computation — detection results, simulated receptions, and
// experiment outputs are bit-identical with or without a Recorder
// attached. All types are safe for concurrent use, so one Registry can
// collect from every worker of a parallel Monte-Carlo campaign.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing (well-behaved callers only add
// non-negative deltas) concurrent-safe counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by delta.
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a concurrent-safe last-value-wins float64 cell.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the last stored value (zero for a fresh gauge).
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram accumulates float64 observations into fixed buckets chosen at
// construction time, alongside exact count, sum, min, and max. Bucket i
// counts observations v with v <= bounds[i]; one implicit overflow bucket
// counts the rest, mirroring the usual cumulative-export convention
// without requiring +Inf in the bounds slice. Every reported figure is
// independent of the order values were recorded in, so concurrent
// recorders give reproducible snapshots.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Int64 // len(bounds)+1, last = overflow
	count   atomic.Int64
	minBits atomic.Uint64 // CAS-updated; valid only when count > 0
	maxBits atomic.Uint64

	mu  sync.Mutex
	sum exactSum // guarded by mu
}

// DefaultBuckets is a 1–2–5 log series from 1e-6 to 1e6, wide enough for
// the quantities this repo observes (iteration counts, dB margins, energy
// fractions, per-trial seconds) at roughly half-decade resolution.
func DefaultBuckets() []float64 {
	var b []float64
	for exp := -6; exp <= 5; exp++ {
		scale := math.Pow(10, float64(exp))
		b = append(b, 1*scale, 2*scale, 5*scale)
	}
	return append(b, 1e6)
}

// NewHistogram builds a histogram over the given ascending bucket upper
// bounds. Nil or empty bounds select DefaultBuckets. The bounds slice is
// copied.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultBuckets()
	}
	own := make([]float64, len(bounds))
	copy(own, bounds)
	h := &Histogram{
		bounds:  own,
		buckets: make([]atomic.Int64, len(own)+1),
	}
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Binary search for the first bound >= v — the bucket that counts
	// v <= bounds[i] — falling through to len(bounds), the overflow
	// bucket. DefaultBuckets has 37 bounds, so the search beats the old
	// linear scan for everything past the first few buckets (see
	// BenchmarkHistogramObserve).
	idx := sort.SearchFloat64s(h.bounds, v)
	h.buckets[idx].Add(1)
	h.count.Add(1)
	h.mu.Lock()
	h.sum.add(v)
	h.mu.Unlock()
	atomicMinFloat(&h.minBits, v)
	atomicMaxFloat(&h.maxBits, v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations, correctly rounded.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum.value()
}

// exactSum is a float64 sum kept exact as a list of non-overlapping
// partials (Shewchuk's algorithm, as in Python's math.fsum), so its
// rounded value does not depend on the order the terms were added in.
// Non-finite terms, and a partial that overflows, collect in special.
type exactSum struct {
	partials []float64 // increasing magnitude, non-overlapping
	special  float64
}

func (s *exactSum) add(x float64) {
	if x == 0 {
		return // keeps an empty or all-zero sum at +0
	}
	if math.IsInf(x, 0) || math.IsNaN(x) {
		s.special += x
		return
	}
	i := 0
	for _, y := range s.partials {
		if math.Abs(x) < math.Abs(y) {
			x, y = y, x
		}
		hi := x + y
		lo := y - (hi - x)
		if lo != 0 {
			s.partials[i] = lo
			i++
		}
		x = hi
	}
	if math.IsInf(x, 0) {
		s.special += x
		s.partials = s.partials[:0]
		return
	}
	s.partials = append(s.partials[:i], x)
}

// value returns the exact sum rounded to the nearest float64, ties to
// even.
func (s *exactSum) value() float64 {
	if s.special != 0 { // NaN != 0 too
		return s.special
	}
	n := len(s.partials)
	if n == 0 {
		return 0
	}
	// Add from the largest partial down until the sum turns inexact.
	n--
	hi, lo := s.partials[n], 0.0
	for n > 0 {
		x, y := hi, s.partials[n-1]
		n--
		hi = x + y
		lo = y - (hi - x)
		if lo != 0 {
			break
		}
	}
	// Round half-even across partials: when the remainder lo sits exactly
	// half an ulp from hi and the next partial leans the same way, the
	// true sum lies past the halfway point.
	if n > 0 && (lo < 0 && s.partials[n-1] < 0 || lo > 0 && s.partials[n-1] > 0) {
		y := lo * 2
		if x := hi + y; x-hi == y {
			hi = x
		}
	}
	return hi
}

func atomicMinFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if math.Float64frombits(old) <= v {
			return
		}
		if bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

func atomicMaxFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}
