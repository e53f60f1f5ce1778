package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
)

// promTestRegistry mixes dotted names, labeled series, and a histogram so
// the writer's whole surface is exercised.
func promTestRegistry() *Registry {
	reg := NewRegistry()
	reg.Count("detector.detect_calls", 7)
	reg.CounterVec("rpc.calls", "method", "code").With("get", "200").Add(3)
	reg.CounterVec("rpc.calls", "method", "code").With("put", "500").Inc()
	reg.SetGauge("queue.depth", 4.5)
	for _, v := range []float64{0.0005, 0.005, 0.05, 0.5} {
		reg.Observe("trial.seconds", v)
	}
	return reg
}

func TestWritePrometheusRoundTrip(t *testing.T) {
	var text strings.Builder
	if err := WritePrometheus(&text, promTestRegistry().Snapshot()); err != nil {
		t.Fatal(err)
	}
	families, err := ParsePrometheus(strings.NewReader(text.String()))
	if err != nil {
		t.Fatalf("writer output did not parse: %v\n%s", err, text.String())
	}
	byName := map[string]PromFamily{}
	for _, f := range families {
		byName[f.Name] = f
	}

	// Dotted names come back underscore-mangled, with the original dotted
	// name preserved as the HELP docstring.
	calls, ok := byName["detector_detect_calls"]
	if !ok {
		t.Fatalf("no detector_detect_calls family in %v", families)
	}
	if calls.Type != "counter" || calls.Help != "detector.detect_calls" {
		t.Fatalf("family header = %+v", calls)
	}
	if len(calls.Samples) != 1 || calls.Samples[0].Value != 7 {
		t.Fatalf("samples = %+v", calls.Samples)
	}

	// Labeled series survive with key-sorted labels.
	rpc := byName["rpc_calls"]
	if len(rpc.Samples) != 2 {
		t.Fatalf("rpc_calls samples = %+v", rpc.Samples)
	}
	got := map[string]float64{}
	for _, s := range rpc.Samples {
		got[labelKey(s.Labels)] = s.Value
	}
	if got[`code=200,method=get`] != 3 || got[`code=500,method=put`] != 1 {
		t.Fatalf("labeled samples = %+v", got)
	}

	if g := byName["queue_depth"]; g.Type != "gauge" || g.Samples[0].Value != 4.5 {
		t.Fatalf("gauge family = %+v", g)
	}

	// Histogram buckets are cumulative, end with +Inf, and carry _sum/_count.
	hist := byName["trial_seconds"]
	if hist.Type != "histogram" {
		t.Fatalf("trial_seconds type = %q", hist.Type)
	}
	bucket := map[string]float64{}
	var sum, count float64
	for _, s := range hist.Samples {
		switch s.Name {
		case "trial_seconds_bucket":
			for _, l := range s.Labels {
				if l.Key == "le" {
					bucket[l.Value] = s.Value
				}
			}
		case "trial_seconds_sum":
			sum = s.Value
		case "trial_seconds_count":
			count = s.Value
		}
	}
	wantBuckets := map[string]float64{"0.0005": 1, "0.005": 2, "0.05": 3, "0.5": 4, "+Inf": 4}
	for le, want := range wantBuckets {
		if bucket[le] != want {
			t.Fatalf("bucket[le=%s] = %g, want %g (all: %v)", le, bucket[le], want, bucket)
		}
	}
	if count != 4 || sum < 0.55 || sum > 0.56 {
		t.Fatalf("sum/count = %g/%g", sum, count)
	}
}

func TestWritePrometheusPassesChecker(t *testing.T) {
	var text strings.Builder
	if err := WritePrometheus(&text, promTestRegistry().Snapshot()); err != nil {
		t.Fatal(err)
	}
	if err := CheckPrometheusText(strings.NewReader(text.String())); err != nil {
		t.Fatalf("writer output failed its own checker: %v\n%s", err, text.String())
	}
}

func TestCheckPrometheusTextRejects(t *testing.T) {
	cases := map[string]string{
		"empty scrape": "",
		"sample without header": `orphan 1
`,
		"family without samples": `# HELP a a
# TYPE a counter
`,
		"unsorted families": `# HELP b b
# TYPE b counter
b 1
# HELP a a
# TYPE a counter
a 1
`,
		"histogram without +Inf": `# HELP h h
# TYPE h histogram
h_bucket{le="1"} 1
h_sum 1
h_count 1
`,
		"bad value": `# HELP a a
# TYPE a counter
a nope
`,
	}
	for name, text := range cases {
		if err := CheckPrometheusText(strings.NewReader(text)); err == nil {
			t.Errorf("%s: checker accepted malformed scrape:\n%s", name, text)
		}
	}
}

func TestPromNameMangling(t *testing.T) {
	for in, want := range map[string]string{
		"detector.detect_calls": "detector_detect_calls",
		"9leading":              "_leading",
		"a-b c":                 "a_b_c",
		"ok_name:x9":            "ok_name:x9",
	} {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestPromLabelEscaping(t *testing.T) {
	reg := NewRegistry()
	reg.CounterVec("m", "k").With("quote\" slash\\ nl\n").Inc()
	var text strings.Builder
	if err := WritePrometheus(&text, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	families, err := ParsePrometheus(strings.NewReader(text.String()))
	if err != nil {
		t.Fatalf("escaped labels did not round-trip: %v\n%s", err, text.String())
	}
	if v := families[0].Samples[0].Labels[0].Value; v != "quote\" slash\\ nl\n" {
		t.Fatalf("label value round-tripped as %q", v)
	}
}

func TestMetricsHandlerServesRuntimeAndRegistry(t *testing.T) {
	rec := httptest.NewRecorder()
	MetricsHandler(promTestRegistry()).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != PromContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, PromContentType)
	}
	body := rec.Body.String()
	if err := CheckPrometheusText(strings.NewReader(body)); err != nil {
		t.Fatalf("/metrics scrape invalid: %v\n%s", err, body)
	}
	for _, want := range []string{"detector_detect_calls 7", "go_goroutines", "go_memstats_heap_alloc_bytes"} {
		if !strings.Contains(body, want) {
			t.Fatalf("scrape missing %q:\n%s", want, body)
		}
	}
}

func TestMetricsHandlerNilRegistry(t *testing.T) {
	rec := httptest.NewRecorder()
	MetricsHandler(nil).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if err := CheckPrometheusText(strings.NewReader(rec.Body.String())); err != nil {
		t.Fatalf("nil-registry scrape invalid: %v", err)
	}
	if !strings.Contains(rec.Body.String(), "go_goroutines") {
		t.Fatal("nil-registry scrape lost the runtime collector")
	}
}

func TestSnapshotHandlerJSON(t *testing.T) {
	reg := promTestRegistry()
	reg.Count("detector.detect_calls", 1)
	rec := httptest.NewRecorder()
	SnapshotHandler(reg).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/metrics.json", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var snap Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("snapshot endpoint is not JSON: %v", err)
	}
	if snap.CounterValue("detector.detect_calls") != 8 {
		t.Fatalf("decoded counter = %d, want 8", snap.CounterValue("detector.detect_calls"))
	}
}
