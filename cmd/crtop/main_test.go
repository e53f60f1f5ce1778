package main

import (
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/uwb-sim/concurrent-ranging/internal/core"
	"github.com/uwb-sim/concurrent-ranging/internal/experiments"
	"github.com/uwb-sim/concurrent-ranging/internal/obs"
	"github.com/uwb-sim/concurrent-ranging/internal/sim"
	"github.com/uwb-sim/concurrent-ranging/ranging"
)

// populatedRegistry builds a registry resembling a mid-campaign crbench
// process: live gauges, plain and labeled counters, and a trial-time
// histogram.
func populatedRegistry(t *testing.T) *obs.Registry {
	t.Helper()
	reg := obs.NewRegistry()
	reg.SetGauge(experiments.MetricCampaignDoneLive, 40)
	reg.SetGauge(experiments.MetricCampaignTotalLive, 100)
	for i := 0; i < 40; i++ {
		reg.Count(experiments.MetricTrials, 1)
		reg.Observe(experiments.MetricTrialSeconds, 0.002)
	}
	reg.Count(core.MetricDetectCalls, 120)
	reg.Count(core.MetricDetectTemplateEvals, 480)
	reg.Count(core.MetricBatchBatches, 3)
	reg.Count(core.MetricBatchCIRs, 120)
	reg.Count(sim.MetricFramesOnAir, 160)
	reg.Count(sim.MetricReceptions, 150)
	reg.Count(ranging.MetricRespondersExpected, 120)
	reg.Count(ranging.MetricRespondersFound, 111)
	reg.CounterVec(core.MetricDetectCallsByBank, "templates").With("4").Add(120)
	reg.CounterVec(core.MetricBatchWorkerItems, "worker").With("0").Add(60)
	reg.CounterVec(core.MetricBatchWorkerItems, "worker").With("1").Add(60)
	reg.CounterVec(sim.MetricReceptionsByKind, "kind").With("single").Add(110)
	reg.CounterVec(sim.MetricReceptionsByKind, "kind").With("concurrent").Add(40)
	reg.CounterVec(ranging.MetricRounds, "outcome").With("ok").Add(39)
	reg.CounterVec(ranging.MetricRounds, "outcome").With("error").Add(1)
	reg.SetGauge(sim.MetricEngineWindowsLive, 12)
	reg.SetGauge(sim.MetricEngineBusLive, 34)
	reg.SetGauge(sim.MetricEngineEfficiencyLive, 0.625)
	reg.GaugeVec(sim.MetricEngineWorkerOccupancyLive, "worker").With("0").Set(80)
	reg.GaugeVec(sim.MetricEngineWorkerOccupancyLive, "worker").With("1").Set(45)
	reg.Count(sim.MetricSwarmRoundsLive, 25)
	return reg
}

func TestRenderSections(t *testing.T) {
	snap := populatedRegistry(t).Snapshot()
	frame := render(nil, snap, 0, "127.0.0.1:0")
	for _, want := range []string{
		"Campaign", "40/100 (40%)", "trials 40",
		"Throughput", "Latency", "trial p50",
		"Detector   calls 120", "bank{templates=4} 120 calls",
		"Batch      batches 3   cirs 120",
		"worker=0:60", "worker=1:60",
		"Sim        frames 160", "kind=concurrent 40",
		"Ranging    found 111/120 (92.5%)", "outcome=error:1", "outcome=ok:39",
		"Engine     windows 12   bus msgs 34   efficiency 62.5%   swarm rounds 25",
		"worker=0", "80.0%", "worker=1", "45.0%",
	} {
		if !strings.Contains(frame, want) {
			t.Fatalf("frame missing %q:\n%s", want, frame)
		}
	}
	if strings.Contains(frame, "\x1b[") {
		t.Fatalf("render emitted ANSI control codes; those belong to run:\n%s", frame)
	}
}

func TestRenderDeltaRate(t *testing.T) {
	reg := populatedRegistry(t)
	prev := reg.Snapshot()
	reg.Count(experiments.MetricTrials, 10)
	cur := reg.Snapshot()
	frame := render(&prev, cur, 2.0, "x")
	if !strings.Contains(frame, "5.0 trials/s (now)") {
		t.Fatalf("frame missing between-poll rate:\n%s", frame)
	}
}

// TestRenderIntervalRatesAndQuantiles records a known load between two
// snapshots: the frame's rates are the counter deltas over the poll gap,
// and its latency quantiles describe only the interval's observations.
func TestRenderIntervalRatesAndQuantiles(t *testing.T) {
	reg := populatedRegistry(t)
	prev := reg.Snapshot()
	reg.Count(experiments.MetricTrials, 10)
	reg.Count(core.MetricBatchCIRs, 30)
	reg.Count(core.MetricDetectCalls, 60)
	// 100 trial times spread evenly over (2 ms, 5 ms): median 3.5 ms. The
	// 40 all-time observations at 2 ms would pull an all-time p50 to 2.9 ms.
	const n, lo, hi = 100, 0.002, 0.005
	for i := 0; i < n; i++ {
		reg.Observe(experiments.MetricTrialSeconds, lo+(hi-lo)*(float64(i)+0.5)/n)
	}
	cur := reg.Snapshot()

	frame := render(&prev, cur, 2.0, "x")
	for _, want := range []string{
		"5.0 trials/s (now)", "batch 15.0 CIRs/s", "detect 30.0 calls/s",
		"Latency    trial p50 3.5ms", "(last 2s)",
	} {
		if !strings.Contains(frame, want) {
			t.Fatalf("frame missing %q:\n%s", want, frame)
		}
	}
	h, ok := intervalHistogram(&prev, cur, experiments.MetricTrialSeconds)
	if !ok || h.Count != n {
		t.Fatalf("interval histogram = %+v, ok %v; want %d observations", h, ok, n)
	}
	if p50 := h.Quantile(0.5); math.Abs(p50-(lo+hi)/2) > (hi-lo)/n {
		t.Fatalf("interval p50 = %g, want %g within one sample spacing", p50, (lo+hi)/2)
	}
}

// TestRenderRestartedProcessShowsNoRate pairs a snapshot with one from a
// fresh process whose counters are lower: no negative rate is shown and
// the latency falls back to the all-time quantiles.
func TestRenderRestartedProcessShowsNoRate(t *testing.T) {
	old := populatedRegistry(t)
	old.Count(experiments.MetricTrials, 100)
	old.Count(core.MetricBatchCIRs, 100)
	old.Count(core.MetricDetectCalls, 100)
	old.Observe(experiments.MetricTrialSeconds, 0.004)
	prev := old.Snapshot()
	cur := populatedRegistry(t).Snapshot()

	frame := render(&prev, cur, 1.0, "x")
	for _, unwanted := range []string{"trials/s", "CIRs/s", "calls/s", "(last "} {
		if strings.Contains(frame, unwanted) {
			t.Fatalf("frame shows %q across a restart:\n%s", unwanted, frame)
		}
	}
	if !strings.Contains(frame, "trial p50 2.0ms  p95 2.0ms  p99 2.0ms (all-time)") {
		t.Fatalf("frame lost the all-time latency fallback:\n%s", frame)
	}
}

// TestRenderEmptyIntervalFallsBackToAllTime: an interval without a trial
// has zero rates and no interval quantiles to show.
func TestRenderEmptyIntervalFallsBackToAllTime(t *testing.T) {
	snap := populatedRegistry(t).Snapshot()
	frame := render(&snap, snap, 1.0, "x")
	for _, want := range []string{
		"0.00 trials/s (now)", "batch 0.00 CIRs/s",
		"trial p50 2.0ms  p95 2.0ms  p99 2.0ms (all-time)",
	} {
		if !strings.Contains(frame, want) {
			t.Fatalf("frame missing %q:\n%s", want, frame)
		}
	}
}

// TestRunOncePrintsRates: -once polls a live server twice, one interval
// apart, so its single frame carries the rates of the load recorded in
// between.
func TestRunOncePrintsRates(t *testing.T) {
	reg := populatedRegistry(t)
	srv, err := obs.ServeDebug("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			reg.Count(experiments.MetricTrials, 1)
			reg.Count(core.MetricDetectCalls, 3)
			reg.Observe(experiments.MetricTrialSeconds, 0.003)
			time.Sleep(time.Millisecond)
		}
	}()
	var out, errw strings.Builder
	cfg := config{Addr: srv.Addr, Interval: 100 * time.Millisecond, Once: true, Stdout: &out, Stderr: &errw}
	err = run(cfg)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errw.String())
	}
	frame := out.String()
	for _, want := range []string{"trials/s (now)", "detect ", "calls/s", "(last "} {
		if !strings.Contains(frame, want) {
			t.Fatalf("-once frame missing %q:\n%s", want, frame)
		}
	}
	if strings.Contains(frame, " 0.00 trials/s") {
		t.Fatalf("-once frame missed the load recorded between its polls:\n%s", frame)
	}
	if strings.Count(frame, "crtop — ") != 1 {
		t.Fatalf("-once rendered more than one frame:\n%s", frame)
	}
}

// TestRunOnceSecondPollFails: when the server is gone by -once's second
// poll, the first snapshot is printed without rates and run succeeds.
func TestRunOnceSecondPollFails(t *testing.T) {
	reg := populatedRegistry(t)
	var polls atomic.Int32
	snapshot := obs.SnapshotHandler(reg)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if polls.Add(1) == 1 {
			snapshot.ServeHTTP(w, r)
			return
		}
		http.Error(w, "campaign over", http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	var out, errw strings.Builder
	cfg := config{Addr: strings.TrimPrefix(srv.URL, "http://"), Interval: time.Millisecond,
		Once: true, Stdout: &out, Stderr: &errw}
	if err := run(cfg); err != nil {
		t.Fatalf("run: %v", err)
	}
	frame := out.String()
	if !strings.Contains(frame, "Detector   calls 120") || !strings.Contains(frame, "(all-time)") {
		t.Fatalf("first snapshot not printed:\n%s", frame)
	}
	if strings.Contains(frame, "trials/s") {
		t.Fatalf("rates printed without a second snapshot:\n%s", frame)
	}
	if !strings.Contains(errw.String(), "gone") {
		t.Fatalf("stderr = %q, want a note that the server went away", errw.String())
	}
}

// TestRunOnceAgainstLiveServer is the end-to-end path: a debug server over
// a recording registry, polled through run's -once mode.
func TestRunOnceAgainstLiveServer(t *testing.T) {
	reg := populatedRegistry(t)
	srv, err := obs.ServeDebug("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var out, errw strings.Builder
	cfg := config{Addr: srv.Addr, Interval: time.Millisecond, Once: true, Stdout: &out, Stderr: &errw}
	if err := run(cfg); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errw.String())
	}
	frame := out.String()
	for _, want := range []string{"crtop — " + srv.Addr, "Campaign", "Detector   calls 120"} {
		if !strings.Contains(frame, want) {
			t.Fatalf("live frame missing %q:\n%s", want, frame)
		}
	}
	if strings.Contains(frame, "\x1b[") {
		t.Fatalf("-once mode must not clear the screen:\n%s", frame)
	}
}

func TestRunUnreachable(t *testing.T) {
	cfg := config{Addr: "127.0.0.1:1", Once: true, Stdout: &strings.Builder{}, Stderr: &strings.Builder{}}
	if err := run(cfg); err == nil {
		t.Fatal("run against an unreachable address should fail on the first frame")
	}
}

func TestCheckExposition(t *testing.T) {
	reg := populatedRegistry(t)
	srv, err := obs.ServeDebug("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// URL mode against the live /metrics endpoint.
	var out strings.Builder
	if err := run(config{Check: "http://" + srv.Addr + "/metrics", Stdout: &out}); err != nil {
		t.Fatalf("check live scrape: %v", err)
	}
	if !strings.Contains(out.String(), "exposition ok") {
		t.Fatalf("check output = %q", out.String())
	}

	// File mode round-trip through the writer.
	var text strings.Builder
	if err := obs.WritePrometheus(&text, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "metrics.txt")
	if err := os.WriteFile(path, []byte(text.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run(config{Check: path, Stdout: &out}); err != nil {
		t.Fatalf("check file scrape: %v", err)
	}

	// A malformed scrape must fail.
	bad := filepath.Join(t.TempDir(), "bad.txt")
	if err := os.WriteFile(bad, []byte("no_help_or_type 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(config{Check: bad, Stdout: &out}); err == nil {
		t.Fatal("malformed scrape passed -check")
	}
}
