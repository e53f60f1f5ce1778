package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/uwb-sim/concurrent-ranging/internal/obs"
)

func testConfig(trials int, seed uint64) runConfig {
	return runConfig{Trials: trials, Seed: seed, TraceSample: 1, Stdout: io.Discard, Stderr: io.Discard}
}

func TestRunRejectsUnknownExperiment(t *testing.T) {
	_, err := run([]string{"warpdrive"}, testConfig(1, 1))
	if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Fatalf("got %v", err)
	}
}

func TestRunRejectsNegativeTrials(t *testing.T) {
	// A negative count used to panic inside fig4 (and table1, sec6, fig8,
	// fullbank); it must fail before any experiment starts.
	_, err := run([]string{"fig4", "fullbank"}, testConfig(-1, 1))
	if err == nil || !strings.Contains(err.Error(), "-trials -1") {
		t.Fatalf("got %v", err)
	}
}

func TestRunRejectsTraceSampleBelowOne(t *testing.T) {
	// -trace-sample 0 once sampled every root span without a word; a
	// sample below 1 must fail before any experiment starts.
	for _, n := range []int{0, -3} {
		cfg := testConfig(1, 1)
		cfg.TraceSample = n
		_, err := run([]string{"fig4"}, cfg)
		if want := fmt.Sprintf("-trace-sample %d", n); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("-trace-sample %d: got %v, want an error naming %q", n, err, want)
		}
	}
}

func TestPackageDocListsEveryExperiment(t *testing.T) {
	// The doc comment's experiment list must track the registry
	// ("capture" was once missing from it).
	data, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	doc, _, found := strings.Cut(string(data), "package main")
	if !found {
		t.Fatal("no package clause in main.go")
	}
	for _, name := range experimentNames() {
		if !strings.Contains(doc, name) {
			t.Errorf("package doc does not mention experiment %q", name)
		}
	}
}

func TestRunFastExperiments(t *testing.T) {
	// The arithmetic-only experiments complete instantly and exercise the
	// whole dispatch path.
	report, err := run([]string{"sec3", "sec7", "sec8", "fig5"}, testConfig(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Experiments) != 4 {
		t.Fatalf("%d experiment entries, want 4", len(report.Experiments))
	}
	for _, e := range report.Experiments {
		if e.OutputBytes == 0 {
			t.Errorf("experiment %s rendered no output", e.Name)
		}
	}
}

func TestRunWritesValidReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.json")
	cfg := testConfig(3, 1)
	cfg.JSONPath = path
	if _, err := run([]string{"sec5", "campaign"}, cfg); err != nil {
		t.Fatal(err)
	}
	report, err := obs.ReadReportFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := report.Validate(); err != nil {
		t.Fatal(err)
	}
	if report.Tool != "crbench" || report.Trials != 3 || report.Seed != 1 {
		t.Fatalf("report header %+v", report)
	}
	// The smoke pair must populate simulator counters and trial timing.
	if got := report.Metrics.CounterValue("sim.frames_on_air"); got == 0 {
		t.Error("sim.frames_on_air is zero")
	}
	if h, ok := report.Metrics.HistogramByName("experiments.trial_seconds"); !ok || h.Count == 0 {
		t.Error("experiments.trial_seconds histogram missing or empty")
	}
}

func TestReportDeterministicModuloWallTime(t *testing.T) {
	once := func() []byte {
		report, err := run([]string{"sec5", "campaign"}, testConfig(3, 7))
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(report.StripWallTime())
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, b := once(), once()
	if !bytes.Equal(a, b) {
		t.Fatalf("stripped reports differ:\n%s\n---\n%s", a, b)
	}
}

func TestJSONStdoutModeKeepsStdoutPure(t *testing.T) {
	// With -json - the report owns stdout: tables and progress all go to
	// stderr, and stdout must parse as exactly one JSON report so
	// `crbench -json - | reportcheck -` works.
	var stdout, stderr bytes.Buffer
	cfg := runConfig{Trials: 2, Seed: 1, TraceSample: 1, JSONPath: "-", Progress: true,
		Stdout: &stdout, Stderr: &stderr}
	if _, err := run([]string{"sec5", "campaign"}, cfg); err != nil {
		t.Fatal(err)
	}

	dec := json.NewDecoder(bytes.NewReader(stdout.Bytes()))
	var report obs.RunReport
	if err := dec.Decode(&report); err != nil {
		t.Fatalf("stdout is not a JSON report: %v\n%s", err, stdout.String())
	}
	if err := report.Validate(); err != nil {
		t.Fatal(err)
	}
	var extra json.RawMessage
	if err := dec.Decode(&extra); err != io.EOF {
		t.Fatalf("stdout carries more than the report (next decode: %v):\n%s", err, stdout.String())
	}

	// The human-facing output still exists — on stderr.
	errOut := stderr.String()
	if !strings.Contains(errOut, "sec5") || !strings.Contains(errOut, "trials") {
		t.Fatalf("stderr lost the tables/progress stream: %q", errOut)
	}
}

func TestProgressPrinterWritesToSink(t *testing.T) {
	var buf bytes.Buffer
	cfg := testConfig(4, 1)
	cfg.Progress = true
	cfg.Stderr = &buf
	if _, err := run([]string{"sec5"}, cfg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "sec5") || !strings.Contains(out, "/12 trials") {
		t.Fatalf("progress stream missing expected content: %q", out)
	}
}

func TestReportCarriesThroughput(t *testing.T) {
	// fullbank and swarm surface their measured throughput, and the swarm
	// its engine diagnosis, as wall-time-class report fields.
	report, err := run([]string{"fullbank", "swarm"}, testConfig(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	fb, sw := report.Experiments[0], report.Experiments[1]
	if fb.CIRsPerSecond <= 0 {
		t.Errorf("fullbank cirs_per_second = %g, want > 0", fb.CIRsPerSecond)
	}
	if sw.EventsPerSecond <= 0 || sw.RoundsPerSecond <= 0 {
		t.Errorf("swarm events_per_second = %g, rounds_per_second = %g, want > 0",
			sw.EventsPerSecond, sw.RoundsPerSecond)
	}
	if sw.EngineParallelEfficiency <= 0 {
		t.Errorf("swarm engine_parallel_efficiency = %g, want > 0", sw.EngineParallelEfficiency)
	}
}
