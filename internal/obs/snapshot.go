package obs

import "math"

// Snapshot is a point-in-time copy of a Registry's metrics, sorted by
// name then labels so its JSON encoding is deterministic for
// deterministic workloads. Labeled vec series appear as entries sharing
// one Name, distinguished by Labels.
type Snapshot struct {
	Counters   []CounterSnapshot   `json:"counters,omitempty"`
	Gauges     []GaugeSnapshot     `json:"gauges,omitempty"`
	Histograms []HistogramSnapshot `json:"histograms,omitempty"`
}

// CounterSnapshot is one counter series' value.
type CounterSnapshot struct {
	Name   string  `json:"name"`
	Labels []Label `json:"labels,omitempty"`
	Value  int64   `json:"value"`
}

// GaugeSnapshot is one gauge series' last value.
type GaugeSnapshot struct {
	Name   string  `json:"name"`
	Labels []Label `json:"labels,omitempty"`
	Value  float64 `json:"value"`
}

// Bucket is one non-empty histogram bucket. UpperBound is +Inf-free: the
// overflow bucket is marked by Overflow instead, keeping the JSON valid.
type Bucket struct {
	UpperBound float64 `json:"le,omitempty"`
	Overflow   bool    `json:"overflow,omitempty"`
	Count      int64   `json:"count"`
}

// HistogramSnapshot is one histogram's state. Only non-empty buckets are
// exported; Min/Max and the quantile estimates are omitted when the
// histogram has no observations. P50/P95/P99 are bucket-interpolated (see
// Quantile), so they are estimates bounded by the bucket resolution — but
// deterministic ones: equal observation multisets yield equal values.
type HistogramSnapshot struct {
	Name    string   `json:"name"`
	Labels  []Label  `json:"labels,omitempty"`
	Count   int64    `json:"count"`
	Sum     float64  `json:"sum"`
	Min     *float64 `json:"min,omitempty"`
	Max     *float64 `json:"max,omitempty"`
	P50     *float64 `json:"p50,omitempty"`
	P95     *float64 `json:"p95,omitempty"`
	P99     *float64 `json:"p99,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Mean returns Sum/Count, or 0 for an empty histogram.
func (h HistogramSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Quantile estimates the q-quantile (0 < q < 1) by locating the bucket
// where the rank q·Count falls and interpolating linearly inside it. The
// interpolation range is clamped to the observed Min/Max, so a quantile
// never leaves the data's range; ranks landing in the overflow bucket
// return Max. q <= 0 returns Min, q >= 1 returns Max, and an empty
// histogram returns 0. The estimate depends only on the snapshot (bucket
// counts and min/max), making it deterministic for deterministic
// workloads regardless of observation order.
func (h HistogramSnapshot) Quantile(q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	min, max := 0.0, 0.0
	if h.Min != nil {
		min = *h.Min
	}
	if h.Max != nil {
		max = *h.Max
	}
	if q <= 0 {
		return min
	}
	if q >= 1 {
		return max
	}
	rank := q * float64(h.Count)
	var cum int64
	lower := min
	for _, b := range h.Buckets {
		prev := cum
		cum += b.Count
		if float64(cum) < rank {
			if !b.Overflow && b.UpperBound > lower {
				lower = b.UpperBound
			}
			continue
		}
		if b.Overflow {
			return max
		}
		upper := b.UpperBound
		if upper > max {
			upper = max
		}
		if upper < lower {
			upper = lower
		}
		frac := (rank - float64(prev)) / float64(b.Count)
		return lower + (upper-lower)*frac
	}
	return max
}

func (h *Histogram) snapshot(name string) HistogramSnapshot {
	s := HistogramSnapshot{Name: name, Count: h.Count(), Sum: h.Sum()}
	if s.Count > 0 {
		lo := math.Float64frombits(h.minBits.Load())
		hi := math.Float64frombits(h.maxBits.Load())
		s.Min, s.Max = &lo, &hi
	}
	for i := range h.buckets {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		b := Bucket{Count: n}
		if i < len(h.bounds) {
			b.UpperBound = h.bounds[i]
		} else {
			b.Overflow = true
		}
		s.Buckets = append(s.Buckets, b)
	}
	if s.Count > 0 {
		p50, p95, p99 := s.Quantile(0.50), s.Quantile(0.95), s.Quantile(0.99)
		s.P50, s.P95, s.P99 = &p50, &p95, &p99
	}
	return s
}

// CounterValue returns the named counter family's total — the sum over
// every series sharing the name (an unlabeled counter is one series) —
// or 0 when absent.
func (s Snapshot) CounterValue(name string) int64 {
	var total int64
	for _, c := range s.Counters {
		if c.Name == name {
			total += c.Value
		}
	}
	return total
}

// CounterSeries returns every counter series of the named family, in
// snapshot (label-sorted) order.
func (s Snapshot) CounterSeries(name string) []CounterSnapshot {
	var out []CounterSnapshot
	for _, c := range s.Counters {
		if c.Name == name {
			out = append(out, c)
		}
	}
	return out
}

// GaugeValue returns the named unlabeled gauge's value, or false when
// absent.
func (s Snapshot) GaugeValue(name string) (float64, bool) {
	for _, g := range s.Gauges {
		if g.Name == name && len(g.Labels) == 0 {
			return g.Value, true
		}
	}
	return 0, false
}

// GaugeSeries returns every gauge series of the named family, in
// snapshot (label-sorted) order — e.g. one per worker for the engine
// profiler's occupancy gauges.
func (s Snapshot) GaugeSeries(name string) []GaugeSnapshot {
	var out []GaugeSnapshot
	for _, g := range s.Gauges {
		if g.Name == name {
			out = append(out, g)
		}
	}
	return out
}

// HistogramByName returns the named histogram snapshot (the unlabeled
// series when the family is labeled), or false.
func (s Snapshot) HistogramByName(name string) (HistogramSnapshot, bool) {
	for _, h := range s.Histograms {
		if h.Name == name && len(h.Labels) == 0 {
			return h, true
		}
	}
	return HistogramSnapshot{}, false
}
