package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// PromContentType is the Prometheus text exposition format version this
// package writes.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// promName mangles a dotted metric name into the Prometheus name
// charset: [a-zA-Z_:][a-zA-Z0-9_:]*. Dots (and anything else outside the
// charset) become underscores.
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && i > 0)
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promFloat renders a sample value; Prometheus spells infinities +Inf /
// -Inf.
func promFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// promLabels renders a label set ({k="v",...}), appending extra to the
// series' own labels. Values are escaped per the exposition format.
func promLabels(labels []Label, extra ...Label) string {
	all := make([]Label, 0, len(labels)+len(extra))
	all = append(all, labels...)
	all = append(all, extra...)
	if len(all) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range all {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(promName(l.Key))
		b.WriteString(`="`)
		b.WriteString(promEscape(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func promEscape(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// promFamily is one exposition family being assembled: HELP/TYPE header
// plus its rendered sample lines.
type promFamily struct {
	name  string // mangled
	help  string // original dotted name doubles as the docstring
	typ   string
	lines []string
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format: one HELP/TYPE-headed family per metric name, families sorted
// by name, histogram series expanded into cumulative _bucket/_sum/_count
// lines. Rates and interval quantiles are left to the reader: Prometheus
// derives them server-side, crtop from successive /debug/metrics.json
// polls.
func WritePrometheus(w io.Writer, snap Snapshot) error {
	byName := map[string]*promFamily{}
	family := func(dotted, typ string) (*promFamily, error) {
		name := promName(dotted)
		f, ok := byName[name]
		if !ok {
			f = &promFamily{name: name, help: dotted, typ: typ}
			byName[name] = f
			return f, nil
		}
		if f.typ != typ {
			return nil, fmt.Errorf("obs: metric %q exported as both %s and %s", dotted, f.typ, typ)
		}
		return f, nil
	}

	for _, c := range snap.Counters {
		f, err := family(c.Name, "counter")
		if err != nil {
			return err
		}
		f.lines = append(f.lines, fmt.Sprintf("%s%s %d", f.name, promLabels(c.Labels), c.Value))
	}
	for _, g := range snap.Gauges {
		f, err := family(g.Name, "gauge")
		if err != nil {
			return err
		}
		f.lines = append(f.lines, fmt.Sprintf("%s%s %s", f.name, promLabels(g.Labels), promFloat(g.Value)))
	}
	for _, h := range snap.Histograms {
		f, err := family(h.Name, "histogram")
		if err != nil {
			return err
		}
		var cum int64
		for _, b := range h.Buckets {
			if b.Overflow {
				continue
			}
			cum += b.Count
			f.lines = append(f.lines, fmt.Sprintf("%s_bucket%s %d",
				f.name, promLabels(h.Labels, Label{Key: "le", Value: promFloat(b.UpperBound)}), cum))
		}
		f.lines = append(f.lines, fmt.Sprintf("%s_bucket%s %d",
			f.name, promLabels(h.Labels, Label{Key: "le", Value: "+Inf"}), h.Count))
		f.lines = append(f.lines, fmt.Sprintf("%s_sum%s %s", f.name, promLabels(h.Labels), promFloat(h.Sum)))
		f.lines = append(f.lines, fmt.Sprintf("%s_count%s %d", f.name, promLabels(h.Labels), h.Count))
	}

	names := make([]string, 0, len(byName))
	for name := range byName {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := byName[name]
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ); err != nil {
			return err
		}
		for _, line := range f.lines {
			if _, err := fmt.Fprintln(w, line); err != nil {
				return err
			}
		}
	}
	return nil
}

// goRuntimeSnapshot samples the Go runtime into an ordinary metrics
// snapshot, so the same exposition path serves process health (heap, GC,
// goroutines) next to the campaign metrics.
func goRuntimeSnapshot() Snapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return Snapshot{
		Counters: []CounterSnapshot{
			{Name: "go.gc_cycles_total", Value: int64(ms.NumGC)},
			{Name: "go.memstats.total_alloc_bytes", Value: int64(ms.TotalAlloc)},
		},
		Gauges: []GaugeSnapshot{
			{Name: "go.gc_pause_total_seconds", Value: float64(ms.PauseTotalNs) / 1e9},
			{Name: "go.goroutines", Value: float64(runtime.NumGoroutine())},
			{Name: "go.memstats.heap_alloc_bytes", Value: float64(ms.HeapAlloc)},
			{Name: "go.memstats.heap_objects", Value: float64(ms.HeapObjects)},
			{Name: "go.memstats.sys_bytes", Value: float64(ms.Sys)},
		},
	}
}

// MetricsHandler serves the registry (plus the Go runtime collector) in
// the Prometheus text exposition format — the /metrics endpoint of
// ServeDebug. A nil registry serves the runtime families alone.
func MetricsHandler(reg *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		var snap Snapshot
		if reg != nil {
			snap = reg.Snapshot()
		}
		rt := goRuntimeSnapshot()
		snap.Counters = append(snap.Counters, rt.Counters...)
		snap.Gauges = append(snap.Gauges, rt.Gauges...)
		w.Header().Set("Content-Type", PromContentType)
		if err := WritePrometheus(w, snap); err != nil {
			// Headers are gone; all we can do is abort the body.
			return
		}
	})
}

// SnapshotHandler serves the registry's live snapshot as JSON — the
// machine endpoint crtop polls. A nil registry serves an empty snapshot.
func SnapshotHandler(reg *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		var snap Snapshot
		if reg != nil {
			snap = reg.Snapshot()
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(snap) //nolint:errcheck // client hangup mid-scrape is not actionable
	})
}
