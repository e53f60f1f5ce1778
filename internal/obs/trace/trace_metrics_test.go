package trace

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/uwb-sim/concurrent-ranging/internal/obs"
)

// plainRecorder implements obs.Recorder without the VecSource extension,
// forcing the tracer's unlabeled fallback path.
type plainRecorder struct {
	counts map[string]int64
}

func (r *plainRecorder) Count(name string, delta int64) {
	if r.counts == nil {
		r.counts = map[string]int64{}
	}
	r.counts[name] += delta
}
func (r *plainRecorder) Observe(string, float64)  {}
func (r *plainRecorder) SetGauge(string, float64) {}

func seriesByLabel(snap obs.Snapshot, family string) map[string]int64 {
	out := map[string]int64{}
	for _, c := range snap.CounterSeries(family) {
		key := ""
		for _, l := range c.Labels {
			key = l.Value
		}
		out[key] += c.Value
	}
	return out
}

func TestSetMetricsLabelsSpansAndEvents(t *testing.T) {
	reg := obs.NewRegistry()
	tr := New(Config{RingSize: 16})
	tr.SetMetrics(reg)

	root := tr.Begin("trial", nil)
	child := root.Begin("detect", nil)
	child.Event("peak_accept", nil)
	child.Event("peak_accept", nil)
	child.Event("peak_reject", nil)
	child.EndWith(nil)
	root.Begin("detect", nil).EndWith(nil)
	root.EndWith(nil)

	snap := reg.Snapshot()
	wantSpans := map[string]int64{"trial": 1, "detect": 2}
	if got := seriesByLabel(snap, MetricSpans); !reflect.DeepEqual(got, wantSpans) {
		t.Fatalf("span series = %v, want %v", got, wantSpans)
	}
	wantEvents := map[string]int64{"peak_accept": 2, "peak_reject": 1}
	if got := seriesByLabel(snap, MetricEvents); !reflect.DeepEqual(got, wantEvents) {
		t.Fatalf("event series = %v, want %v", got, wantEvents)
	}
	// Span ends are not spans; the family totals match begin/instant counts.
	if got := snap.CounterValue(MetricSpans); got != 3 {
		t.Fatalf("spans total = %d, want 3", got)
	}
}

func TestSetMetricsCountsSampledOut(t *testing.T) {
	reg := obs.NewRegistry()
	tr := New(Config{RingSize: 16, SampleEvery: 3})
	tr.SetMetrics(reg)
	for i := 0; i < 9; i++ {
		tr.Begin("trial", nil).EndWith(nil)
	}
	snap := reg.Snapshot()
	if got := snap.CounterValue(MetricSampledOut); got != 6 {
		t.Fatalf("sampled_out = %d, want 6", got)
	}
	if got := snap.CounterValue(MetricSpans); got != 3 {
		t.Fatalf("spans = %d, want 3 (one in three sampled)", got)
	}
	if st := tr.Stats(); st.SampledOut != 6 || st.RootSpans != 9 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSetMetricsPlainRecorderFallback(t *testing.T) {
	rec := &plainRecorder{}
	tr := New(Config{RingSize: 16, SampleEvery: 2})
	tr.SetMetrics(rec)
	for i := 0; i < 4; i++ {
		s := tr.Begin("trial", nil)
		s.Event("e", nil)
		s.EndWith(nil)
	}
	want := map[string]int64{MetricSpans: 2, MetricEvents: 2, MetricSampledOut: 2}
	if !reflect.DeepEqual(rec.counts, want) {
		t.Fatalf("plain recorder counts = %v, want %v", rec.counts, want)
	}
}

func TestSetMetricsNilDetaches(t *testing.T) {
	reg := obs.NewRegistry()
	tr := New(Config{RingSize: 16})
	tr.SetMetrics(reg)
	tr.Begin("trial", nil).EndWith(nil)
	tr.SetMetrics(nil)
	tr.Begin("trial", nil).EndWith(nil)
	if got := reg.Snapshot().CounterValue(MetricSpans); got != 1 {
		t.Fatalf("detached tracer kept mirroring: spans = %d, want 1", got)
	}
}

// TestSetMetricsIsObservational pins the core contract: the mirrored
// registry changes nothing about what the tracer records.
func TestSetMetricsIsObservational(t *testing.T) {
	run := func(rec obs.Recorder) ([]Event, Stats, string) {
		var sink bytes.Buffer
		clock := func() float64 { return 0 }
		tr := New(Config{Writer: &sink, RingSize: 16, SampleEvery: 2, Clock: clock})
		tr.SetMetrics(rec)
		for i := 0; i < 4; i++ {
			s := tr.Begin("trial", Attrs{"trial": i})
			s.Event("peak", Attrs{"toa": 1.5})
			s.EndWith(nil)
		}
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
		return tr.Events(), tr.Stats(), sink.String()
	}
	evPlain, stPlain, outPlain := run(nil)
	evMirrored, stMirrored, outMirrored := run(obs.NewRegistry())
	if !reflect.DeepEqual(evPlain, evMirrored) {
		t.Fatalf("ring differs with metrics attached:\n%v\nvs\n%v", evPlain, evMirrored)
	}
	if stPlain != stMirrored {
		t.Fatalf("stats differ: %+v vs %+v", stPlain, stMirrored)
	}
	if outPlain != outMirrored {
		t.Fatal("JSONL stream differs with metrics attached")
	}
}
