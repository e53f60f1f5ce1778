package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"regexp"
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
	// The swarm surfaces its engine diagnosis (the sharded engine's
	// parallel efficiency) as wall-time-class report fields.
	report, err := run([]string{"swarm"}, testConfig(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	sw := report.Experiments[0]
	if sw.EngineParallelEfficiency <= 0 {
		t.Errorf("swarm engine_parallel_efficiency = %g, want > 0", sw.EngineParallelEfficiency)
	}
}

// nonFinite matches a NaN or an infinity as fmt prints them.
var nonFinite = regexp.MustCompile(`NaN|[+-]Inf`)

// TestRunFlagProperty draws 200 seeded flag vectors that mix small
// in-domain values with negatives, 0, NaN, ±Inf and 1e308, parses each as
// the command line does and requires the run either to fail or to print
// only finite numbers and write a report JSON can encode (encoding/json
// rejects NaN and ±Inf). A Monte-Carlo experiment runs only at -trials 1
// or 2; any other count goes with an experiment whose cost does not
// depend on it, so 0's paper-faithful counts stay out of the test's time.
func TestRunFlagProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(18, 6))
	hostile := []string{"-1", "0", "NaN", "+Inf", "-Inf", "1e308"}
	// One flag in eight draws a hostile value, so about half the
	// vectors run end to end and the rest probe the checks.
	pick := func(inDomain ...string) string {
		if rng.IntN(8) == 0 {
			return hostile[rng.IntN(len(hostile))]
		}
		return inDomain[rng.IntN(len(inDomain))]
	}
	monteCarlo := []string{"fig4", "sec5", "fig6", "table1", "sec6", "fig8", "campaign", "capture", "ablation"}
	fixedCost := []string{"fig1", "fig2", "sec3", "fig5", "sec7", "sec8"}
	tracePath := filepath.Join(t.TempDir(), "trace.jsonl")
	accepted := 0
	for i := 0; i < 200; i++ {
		trials := pick("1", "2")
		exp := fixedCost[rng.IntN(len(fixedCost))]
		if (trials == "1" || trials == "2") && rng.IntN(2) == 0 {
			exp = monteCarlo[rng.IntN(len(monteCarlo))]
		}
		args := []string{"-trials", trials, "-seed", pick("1", "7"), "-trace-sample", pick("1", "2")}
		if rng.IntN(2) == 0 {
			args = append(args, "-tracefile", tracePath)
		}
		args = append(args, exp)
		names, cfg, err := parseFlags(args, io.Discard)
		if err != nil {
			continue
		}
		var out bytes.Buffer
		cfg.Stdout, cfg.Stderr = &out, io.Discard
		report, err := run(names, cfg)
		if err != nil {
			continue
		}
		accepted++
		if m := nonFinite.FindString(out.String()); m != "" {
			t.Errorf("crbench %q succeeded but printed %s:\n%s", args, m, out.String())
		}
		if _, err := json.Marshal(report); err != nil {
			t.Errorf("crbench %q: report does not encode: %v", args, err)
		}
	}
	if accepted == 0 {
		t.Fatal("every flag vector was rejected; the draw exercises no run")
	}
	t.Logf("%d of 200 flag vectors ran", accepted)
}
