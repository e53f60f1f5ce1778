package obs

import (
	"sort"
	"sync"
)

// Recorder is the write-side interface instrumented components hold. The
// contract every implementation and every caller must honor:
//
//   - A nil Recorder means "disabled": callers guard each recording site
//     with a nil check, so the disabled cost is one predictable branch.
//   - Recording must never influence the caller's computation; Recorder
//     methods have no results a caller could branch on.
//   - Implementations must be safe for concurrent use (Monte-Carlo
//     campaigns record from many worker goroutines into one sink).
//
// *Registry is the canonical implementation; tests may substitute their
// own to assert what a component records.
type Recorder interface {
	// Count adds delta to the named counter.
	Count(name string, delta int64)
	// Observe records one value into the named histogram.
	Observe(name string, value float64)
	// SetGauge stores the last-value-wins gauge.
	SetGauge(name string, value float64)
}

// Registry names and owns a set of metrics. The zero value is not usable;
// call NewRegistry. All methods are safe for concurrent use.
type Registry struct {
	mu          sync.RWMutex
	counters    map[string]*Counter
	gauges      map[string]*Gauge
	histograms  map[string]*Histogram
	counterVecs map[string]*CounterVec
	gaugeVecs   map[string]*GaugeVec
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:    make(map[string]*Counter),
		gauges:      make(map[string]*Gauge),
		histograms:  make(map[string]*Histogram),
		counterVecs: make(map[string]*CounterVec),
		gaugeVecs:   make(map[string]*GaugeVec),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use with
// DefaultBuckets.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h := r.histograms[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.histograms[name]; h == nil {
		h = NewHistogram(nil)
		r.histograms[name] = h
	}
	return h
}

// Count implements Recorder.
func (r *Registry) Count(name string, delta int64) { r.Counter(name).Add(delta) }

// Observe implements Recorder.
func (r *Registry) Observe(name string, value float64) { r.Histogram(name).Observe(value) }

// SetGauge implements Recorder.
func (r *Registry) SetGauge(name string, value float64) { r.Gauge(name).Set(value) }

// Snapshot returns a point-in-time copy of every metric — scalar and
// labeled series alike — sorted by name, then by label values, so the
// JSON encoding is deterministic for deterministic workloads. Concurrent
// recording during the snapshot yields values that are each individually
// consistent.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	snap := Snapshot{}
	for name, c := range r.counters {
		snap.Counters = append(snap.Counters, CounterSnapshot{Name: name, Value: c.Value()})
	}
	for name, g := range r.gauges {
		snap.Gauges = append(snap.Gauges, GaugeSnapshot{Name: name, Value: g.Value()})
	}
	for name, h := range r.histograms {
		snap.Histograms = append(snap.Histograms, h.snapshot(name))
	}
	for name, v := range r.counterVecs {
		v.mu.RLock()
		for key, c := range v.children {
			snap.Counters = append(snap.Counters, CounterSnapshot{
				Name: name, Labels: v.labels[key], Value: c.Value(),
			})
		}
		v.mu.RUnlock()
	}
	for name, v := range r.gaugeVecs {
		v.mu.RLock()
		for key, g := range v.children {
			snap.Gauges = append(snap.Gauges, GaugeSnapshot{
				Name: name, Labels: v.labels[key], Value: g.Value(),
			})
		}
		v.mu.RUnlock()
	}
	sort.Slice(snap.Counters, func(i, j int) bool {
		return seriesLess(snap.Counters[i].Name, snap.Counters[i].Labels,
			snap.Counters[j].Name, snap.Counters[j].Labels)
	})
	sort.Slice(snap.Gauges, func(i, j int) bool {
		return seriesLess(snap.Gauges[i].Name, snap.Gauges[i].Labels,
			snap.Gauges[j].Name, snap.Gauges[j].Labels)
	})
	sort.Slice(snap.Histograms, func(i, j int) bool {
		return seriesLess(snap.Histograms[i].Name, snap.Histograms[i].Labels,
			snap.Histograms[j].Name, snap.Histograms[j].Labels)
	})
	return snap
}

// seriesLess orders metric series by name, then unlabeled before
// labeled, then by label key/value pairs.
func seriesLess(an string, al []Label, bn string, bl []Label) bool {
	if an != bn {
		return an < bn
	}
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i].Key != bl[i].Key {
			return al[i].Key < bl[i].Key
		}
		if al[i].Value != bl[i].Value {
			return al[i].Value < bl[i].Value
		}
	}
	return len(al) < len(bl)
}
