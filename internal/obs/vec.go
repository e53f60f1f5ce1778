package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Label is one key/value pair attached to a metric series. Series labels
// are always name-sorted by key, so snapshots and the Prometheus
// exposition are deterministic for deterministic workloads.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// MaxSeriesPerVec bounds the distinct label-value combinations one vec
// will materialize. The cap keeps a buggy caller (or a high-cardinality
// label like a per-trial ID) from growing a registry without bound: once
// a vec is full, further novel combinations all collapse into a single
// overflow series whose every label value is OverflowLabelValue.
const MaxSeriesPerVec = 256

// OverflowLabelValue marks the collapsed series a full vec routes novel
// label combinations into.
const OverflowLabelValue = "~overflow"

// labelSep joins label values into a series map key. 0xff never appears
// in well-formed UTF-8 label values.
const labelSep = "\xff"

// vecKeys canonicalizes a vec's label keys: keys are stored sorted, and
// perm maps each declared position to its sorted position so With can
// accept values in declaration order.
type vecKeys struct {
	name     string
	declared []string
	sorted   []string
	perm     []int
}

func newVecKeys(name string, keys []string) vecKeys {
	if len(keys) == 0 {
		panic(fmt.Sprintf("obs: vec %q declared with no label keys", name))
	}
	type kp struct {
		key string
		pos int
	}
	kps := make([]kp, len(keys))
	for i, k := range keys {
		if k == "" {
			panic(fmt.Sprintf("obs: vec %q declared with an empty label key", name))
		}
		kps[i] = kp{k, i}
	}
	sort.Slice(kps, func(i, j int) bool { return kps[i].key < kps[j].key })
	vk := vecKeys{
		name:     name,
		declared: append([]string(nil), keys...),
		sorted:   make([]string, len(kps)),
		perm:     make([]int, len(kps)),
	}
	for si, p := range kps {
		if si > 0 && p.key == kps[si-1].key {
			panic(fmt.Sprintf("obs: vec %q declares label key %q twice", name, p.key))
		}
		vk.sorted[si] = p.key
		vk.perm[p.pos] = si
	}
	return vk
}

// seriesKey reorders declaration-order values into sorted-key order and
// returns the joined map key plus the sorted Label set.
func (vk vecKeys) seriesKey(values []string) (string, []Label) {
	if len(values) != len(vk.sorted) {
		panic(fmt.Sprintf("obs: vec %q takes %d label values, got %d",
			vk.name, len(vk.sorted), len(values)))
	}
	ordered := make([]string, len(values))
	for i, v := range values {
		ordered[vk.perm[i]] = v
	}
	labels := make([]Label, len(ordered))
	for i, v := range ordered {
		labels[i] = Label{Key: vk.sorted[i], Value: v}
	}
	return strings.Join(ordered, labelSep), labels
}

// overflowSeries is the collapsed series key/labels for a full vec.
func (vk vecKeys) overflowSeries() (string, []Label) {
	values := make([]string, len(vk.sorted))
	for i := range values {
		values[i] = OverflowLabelValue
	}
	labels := make([]Label, len(values))
	for i := range values {
		labels[i] = Label{Key: vk.sorted[i], Value: OverflowLabelValue}
	}
	return strings.Join(values, labelSep), labels
}

// CounterVec is a family of counters sharing one metric name, split by a
// fixed, bounded label set. Obtain one from Registry.CounterVec; resolve
// series with With (ideally once, at setup time — a resolved *Counter is
// the allocation-free hot-path handle).
type CounterVec struct {
	keys vecKeys

	mu       sync.RWMutex
	children map[string]*Counter
	labels   map[string][]Label
}

// With returns the counter for the given label values (in the key order
// the vec was declared with), creating it on first use. Past
// MaxSeriesPerVec distinct series, novel combinations share the overflow
// series.
func (v *CounterVec) With(values ...string) *Counter {
	key, labels := v.keys.seriesKey(values)
	v.mu.RLock()
	c := v.children[key]
	v.mu.RUnlock()
	if c != nil {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c = v.children[key]; c != nil {
		return c
	}
	if len(v.children) >= MaxSeriesPerVec {
		key, labels = v.keys.overflowSeries()
		if c = v.children[key]; c != nil {
			return c
		}
	}
	c = &Counter{}
	v.children[key] = c
	v.labels[key] = labels
	return c
}

// GaugeVec is a family of gauges sharing one metric name; see CounterVec.
type GaugeVec struct {
	keys vecKeys

	mu       sync.RWMutex
	children map[string]*Gauge
	labels   map[string][]Label
}

// With returns the gauge for the given label values, creating it on
// first use (overflow semantics as CounterVec.With).
func (v *GaugeVec) With(values ...string) *Gauge {
	key, labels := v.keys.seriesKey(values)
	v.mu.RLock()
	g := v.children[key]
	v.mu.RUnlock()
	if g != nil {
		return g
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if g = v.children[key]; g != nil {
		return g
	}
	if len(v.children) >= MaxSeriesPerVec {
		key, labels = v.keys.overflowSeries()
		if g = v.children[key]; g != nil {
			return g
		}
	}
	g = &Gauge{}
	v.children[key] = g
	v.labels[key] = labels
	return g
}

// VecSource is the optional labeled-metrics extension of a Recorder sink.
// *Registry implements it; instrumented components that want labeled
// series type-assert their Recorder once at setup time, resolve the
// series children they need, and keep recording through plain *Counter /
// *Gauge / *Histogram handles on the hot path — so a sink that does not
// support labels (or a nil Recorder) costs nothing extra.
type VecSource interface {
	// CounterVec returns the named counter family over the given label
	// keys, creating it on first use.
	CounterVec(name string, keys ...string) *CounterVec
	// GaugeVec returns the named gauge family over the given label keys.
	GaugeVec(name string, keys ...string) *GaugeVec
}

// CounterVec returns the named counter family, creating it on first use.
// The label keys are canonicalized to sorted order; a second call with
// the same name must use the same key set (in any order).
func (r *Registry) CounterVec(name string, keys ...string) *CounterVec {
	r.mu.RLock()
	v := r.counterVecs[name]
	r.mu.RUnlock()
	if v != nil {
		checkVecKeys(v.keys, keys)
		return v
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v = r.counterVecs[name]; v == nil {
		v = &CounterVec{
			keys:     newVecKeys(name, keys),
			children: make(map[string]*Counter),
			labels:   make(map[string][]Label),
		}
		r.counterVecs[name] = v
	}
	checkVecKeys(v.keys, keys)
	return v
}

// GaugeVec returns the named gauge family, creating it on first use.
func (r *Registry) GaugeVec(name string, keys ...string) *GaugeVec {
	r.mu.RLock()
	v := r.gaugeVecs[name]
	r.mu.RUnlock()
	if v != nil {
		checkVecKeys(v.keys, keys)
		return v
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v = r.gaugeVecs[name]; v == nil {
		v = &GaugeVec{
			keys:     newVecKeys(name, keys),
			children: make(map[string]*Gauge),
			labels:   make(map[string][]Label),
		}
		r.gaugeVecs[name] = v
	}
	checkVecKeys(v.keys, keys)
	return v
}

// checkVecKeys panics when a vec is re-requested with a different key
// list — even a reordered one. With takes values in declaration order,
// so silently returning a vec declared with another order would
// mislabel every series the second caller resolves.
func checkVecKeys(have vecKeys, keys []string) {
	if len(keys) != len(have.declared) {
		panic(fmt.Sprintf("obs: vec %q re-declared with %d label keys, have %d",
			have.name, len(keys), len(have.declared)))
	}
	for i, k := range keys {
		if k != have.declared[i] {
			panic(fmt.Sprintf("obs: vec %q re-declared with label keys %v, have %v",
				have.name, keys, have.declared))
		}
	}
}
