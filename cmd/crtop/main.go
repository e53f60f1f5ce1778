// Command crtop is a terminal dashboard for long-running crbench/crsim
// processes: it polls the debug server's live snapshot endpoint
// (/debug/metrics.json, served by -pprof) and renders campaign progress,
// throughput and trial-latency quantiles over the last poll interval,
// detector and batch-engine load, simulator and ranging tallies, and
// flight-recorder span counts.
//
// Usage:
//
//	crbench -pprof 127.0.0.1:6060 -trials 100000 campaign &
//	crtop -addr 127.0.0.1:6060
//
// crtop repaints once per -interval until interrupted (or for -frames
// repaints). Rates and interval quantiles come from the difference
// between its last two polls, so they appear from the second frame on.
// -once polls twice, one -interval apart, and renders a single frame
// without clearing the screen, which is also the mode to use when piping
// output.
//
// A second mode, -check file-or-URL, validates a Prometheus /metrics
// scrape against the exposition invariants the repo's writer promises
// (parseable lines, name-sorted families, HELP/TYPE present, complete
// histograms) and exits non-zero on violation; CI feeds a live scrape
// through it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"github.com/uwb-sim/concurrent-ranging/internal/core"
	"github.com/uwb-sim/concurrent-ranging/internal/experiments"
	"github.com/uwb-sim/concurrent-ranging/internal/obs"
	"github.com/uwb-sim/concurrent-ranging/internal/obs/trace"
	"github.com/uwb-sim/concurrent-ranging/internal/sim"
	"github.com/uwb-sim/concurrent-ranging/ranging"
)

func main() {
	cfg := config{Stdout: os.Stdout, Stderr: os.Stderr}
	flag.StringVar(&cfg.Addr, "addr", "127.0.0.1:6060", "debug server `address` of a running crbench/crsim -pprof process")
	flag.DurationVar(&cfg.Interval, "interval", time.Second, "repaint interval, and the gap rates and interval quantiles cover")
	flag.IntVar(&cfg.Frames, "frames", 0, "stop after N repaints (0 = run until interrupted)")
	flag.BoolVar(&cfg.Once, "once", false, "poll twice, one -interval apart, render one frame without clearing the screen and exit")
	flag.StringVar(&cfg.Check, "check", "", "validate a Prometheus scrape from this `file-or-URL` and exit")
	flag.Parse()
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "crtop:", err)
		os.Exit(1)
	}
}

// config collects the flag-derived settings so tests can drive run
// without a process.
type config struct {
	Addr     string
	Interval time.Duration
	Frames   int
	Once     bool
	Check    string
	Stdout   io.Writer
	Stderr   io.Writer
}

func run(cfg config) error {
	if cfg.Check != "" {
		return checkExposition(cfg.Check, cfg.Stdout)
	}
	client := &http.Client{Timeout: 5 * time.Second}
	url := "http://" + cfg.Addr + "/debug/metrics.json"
	frames := cfg.Frames
	var prev obs.Snapshot
	var prevAt time.Time
	havePrev := false
	if cfg.Once {
		// -once renders one frame from a second poll, so its rates cover
		// one -interval like every repainted frame's.
		frames = 1
		snap, err := fetchSnapshot(client, url)
		if err != nil {
			return err
		}
		prev, prevAt, havePrev = snap, time.Now(), true
		time.Sleep(cfg.Interval)
	}
	for n := 0; frames == 0 || n < frames; n++ {
		if n > 0 {
			time.Sleep(cfg.Interval)
		}
		cur, err := fetchSnapshot(client, url)
		now := time.Now()
		if err != nil {
			if !havePrev {
				return err
			}
			// A long campaign's debug server disappears when the run
			// finishes; treat that as a clean end once a poll succeeded.
			fmt.Fprintf(cfg.Stderr, "crtop: %s gone (%v); exiting\n", cfg.Addr, err)
			if cfg.Once {
				// -once's first poll is all there is: show it without rates.
				fmt.Fprint(cfg.Stdout, render(nil, prev, 0, cfg.Addr))
			}
			return nil
		}
		if !cfg.Once {
			// Home the cursor and clear to end of screen: a repaint, not a
			// scroll.
			fmt.Fprint(cfg.Stdout, "\x1b[H\x1b[2J")
		}
		var prevp *obs.Snapshot
		var dt float64
		if havePrev {
			prevp, dt = &prev, now.Sub(prevAt).Seconds()
		}
		fmt.Fprint(cfg.Stdout, render(prevp, cur, dt, cfg.Addr))
		prev, prevAt, havePrev = cur, now, true
	}
	return nil
}

// fetchSnapshot polls one live metrics snapshot.
func fetchSnapshot(client *http.Client, url string) (obs.Snapshot, error) {
	var snap obs.Snapshot
	resp, err := client.Get(url)
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("%s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return snap, fmt.Errorf("decoding %s: %w", url, err)
	}
	return snap, nil
}

// checkExposition validates a Prometheus text scrape read from a file
// path or an http(s) URL.
func checkExposition(src string, out io.Writer) error {
	var r io.ReadCloser
	if strings.HasPrefix(src, "http://") || strings.HasPrefix(src, "https://") {
		client := &http.Client{Timeout: 10 * time.Second}
		resp, err := client.Get(src)
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			return fmt.Errorf("%s: %s", src, resp.Status)
		}
		r = resp.Body
	} else {
		f, err := os.Open(src)
		if err != nil {
			return err
		}
		r = f
	}
	defer r.Close()
	if err := obs.CheckPrometheusText(r); err != nil {
		return fmt.Errorf("%s: %w", src, err)
	}
	fmt.Fprintf(out, "crtop: %s: exposition ok\n", src)
	return nil
}

// render draws one dashboard frame from the current snapshot. prev is the
// previous poll's snapshot (nil on the first frame) and dt the measured
// gap between the two polls in seconds; every rate and the interval
// latency quantiles are computed over that gap. It is a pure function of
// its inputs, so tests assert on frames directly.
func render(prev *obs.Snapshot, cur obs.Snapshot, dt float64, addr string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "crtop — %s\n\n", addr)

	// Campaign: live progress gauges plus the trial rate.
	done, okD := cur.GaugeValue(experiments.MetricCampaignDoneLive)
	total, okT := cur.GaugeValue(experiments.MetricCampaignTotalLive)
	trials := cur.CounterValue(experiments.MetricTrials)
	if okD && okT && total > 0 {
		fmt.Fprintf(&b, "Campaign   %s %.0f/%.0f (%.0f%%)\n",
			bar(done/total, 24), done, total, 100*done/total)
	} else {
		fmt.Fprintf(&b, "Campaign   (no live campaign gauges)\n")
	}
	line := fmt.Sprintf("  trials %d", trials)
	if r, ok := deltaRate(prev, cur, experiments.MetricTrials, dt); ok {
		line += fmt.Sprintf("   %s trials/s (now)", fmtRate(r))
	}
	b.WriteString(line + "\n\n")

	// Throughput: batch CIRs and detect calls over the poll interval.
	b.WriteString("Throughput")
	if prev == nil {
		b.WriteString("   (rates from the second poll on)")
	}
	if r, ok := deltaRate(prev, cur, core.MetricBatchCIRs, dt); ok {
		fmt.Fprintf(&b, "   batch %s CIRs/s", fmtRate(r))
	}
	if r, ok := deltaRate(prev, cur, core.MetricDetectCalls, dt); ok {
		fmt.Fprintf(&b, "   detect %s calls/s", fmtRate(r))
	}
	b.WriteString("\n")

	// Latency: trial-time quantiles over the poll interval, falling back
	// to the all-time histogram when the interval saw no trial.
	if h, ok := intervalHistogram(prev, cur, experiments.MetricTrialSeconds); ok {
		fmt.Fprintf(&b, "Latency    trial p50 %s  p95 %s  p99 %s (last %s)\n",
			fmtSeconds(h.Quantile(0.50)), fmtSeconds(h.Quantile(0.95)), fmtSeconds(h.Quantile(0.99)),
			time.Duration(dt*float64(time.Second)).Round(time.Millisecond))
	} else if h, ok := cur.HistogramByName(experiments.MetricTrialSeconds); ok && h.Count > 0 {
		fmt.Fprintf(&b, "Latency    trial p50 %s  p95 %s  p99 %s (all-time)\n",
			fmtSeconds(deref(h.P50)), fmtSeconds(deref(h.P95)), fmtSeconds(deref(h.P99)))
	}
	b.WriteString("\n")

	// Detector: call and template-eval totals plus the per-bank split.
	fmt.Fprintf(&b, "Detector   calls %d   template evals %d\n",
		cur.CounterValue(core.MetricDetectCalls), cur.CounterValue(core.MetricDetectTemplateEvals))
	for _, s := range cur.CounterSeries(core.MetricDetectCallsByBank) {
		fmt.Fprintf(&b, "  bank{%s} %d calls\n", labelString(s.Labels), s.Value)
	}

	// Batch engine: batches/CIRs/errors and the per-worker partition.
	fmt.Fprintf(&b, "Batch      batches %d   cirs %d   errors %d\n",
		cur.CounterValue(core.MetricBatchBatches), cur.CounterValue(core.MetricBatchCIRs),
		cur.CounterValue(core.MetricBatchErrors))
	if workers := cur.CounterSeries(core.MetricBatchWorkerItems); len(workers) > 0 {
		b.WriteString("  workers")
		for _, s := range workers {
			fmt.Fprintf(&b, "  %s:%d", labelString(s.Labels), s.Value)
		}
		b.WriteString("\n")
	}

	// Simulator: frame/reception tallies with the labeled regime split.
	fmt.Fprintf(&b, "Sim        frames %d   receptions %d", cur.CounterValue(sim.MetricFramesOnAir),
		cur.CounterValue(sim.MetricReceptions))
	if kinds := cur.CounterSeries(sim.MetricReceptionsByKind); len(kinds) > 0 {
		parts := make([]string, len(kinds))
		for i, s := range kinds {
			parts[i] = fmt.Sprintf("%s %d", labelString(s.Labels), s.Value)
		}
		fmt.Fprintf(&b, " (%s)", strings.Join(parts, ", "))
	}
	fmt.Fprintf(&b, "   collisions %d   decode failures %d\n",
		cur.CounterValue(sim.MetricCollisions), cur.CounterValue(sim.MetricDecodeFailures))

	// Ranging: detection success rate and round outcomes.
	expected := cur.CounterValue(ranging.MetricRespondersExpected)
	found := cur.CounterValue(ranging.MetricRespondersFound)
	fmt.Fprintf(&b, "Ranging    found %d/%d", found, expected)
	if expected > 0 {
		fmt.Fprintf(&b, " (%.1f%%)", 100*float64(found)/float64(expected))
	}
	fmt.Fprintf(&b, "   round errors %d", cur.CounterValue(ranging.MetricRoundErrors))
	if rounds := cur.CounterSeries(ranging.MetricRounds); len(rounds) > 0 {
		b.WriteString("   rounds")
		for _, s := range rounds {
			fmt.Fprintf(&b, " %s:%d", labelString(s.Labels), s.Value)
		}
	}
	b.WriteString("\n")

	// Engine: the sharded-engine profiler's live gauges — barrier-window
	// and bus progress, running parallel efficiency, swarm round volume,
	// and one occupancy bar per worker slot.
	if windows, ok := cur.GaugeValue(sim.MetricEngineWindowsLive); ok {
		bus, _ := cur.GaugeValue(sim.MetricEngineBusLive)
		fmt.Fprintf(&b, "Engine     windows %.0f   bus msgs %.0f", windows, bus)
		if eff, ok := cur.GaugeValue(sim.MetricEngineEfficiencyLive); ok {
			fmt.Fprintf(&b, "   efficiency %.1f%%", 100*eff)
		}
		if rounds := cur.CounterValue(sim.MetricSwarmRoundsLive); rounds > 0 {
			fmt.Fprintf(&b, "   swarm rounds %d", rounds)
		}
		b.WriteString("\n")
		for _, g := range cur.GaugeSeries(sim.MetricEngineWorkerOccupancyLive) {
			if len(g.Labels) == 0 {
				continue
			}
			fmt.Fprintf(&b, "  %s %s %5.1f%%\n",
				labelString(g.Labels), bar(g.Value/100, 24), g.Value)
		}
	}

	// Flight recorder: span/event volume, with the busiest span classes.
	spans := cur.CounterSeries(trace.MetricSpans)
	if len(spans) > 0 || cur.CounterValue(trace.MetricEvents) > 0 {
		fmt.Fprintf(&b, "Trace      spans %d   events %d   sampled out %d\n",
			cur.CounterValue(trace.MetricSpans), cur.CounterValue(trace.MetricEvents),
			cur.CounterValue(trace.MetricSampledOut))
		for _, s := range topSeries(spans, 4) {
			fmt.Fprintf(&b, "  span{%s} %d\n", labelString(s.Labels), s.Value)
		}
	}
	return b.String()
}

// deltaRate computes the between-poll rate of a counter family, when a
// previous snapshot exists and time advanced.
func deltaRate(prev *obs.Snapshot, cur obs.Snapshot, name string, dt float64) (float64, bool) {
	if prev == nil || dt <= 0 {
		return 0, false
	}
	d := cur.CounterValue(name) - prev.CounterValue(name)
	if d < 0 { // the process restarted between polls
		return 0, false
	}
	return float64(d) / dt, true
}

// intervalHistogram returns the named histogram's observations between two
// polls: per-bucket count deltas, with Min/Max kept at the current
// snapshot's lifetime range so Quantile clamps to it (the interval's own
// extremes are not recoverable from buckets). Buckets the interval left
// empty keep their place with a zero count, so an occupied bucket
// interpolates from its real lower edge. ok is false without a previous
// poll, when the interval saw no observation, or when a bucket count went
// down (the process restarted between polls).
func intervalHistogram(prev *obs.Snapshot, cur obs.Snapshot, name string) (obs.HistogramSnapshot, bool) {
	h, ok := cur.HistogramByName(name)
	if !ok || prev == nil {
		return obs.HistogramSnapshot{}, false
	}
	p, _ := prev.HistogramByName(name)
	before := make(map[obs.Bucket]int64, len(p.Buckets))
	for _, b := range p.Buckets {
		before[bucketKey(b)] = b.Count
	}
	d := obs.HistogramSnapshot{Name: name, Sum: h.Sum - p.Sum, Min: h.Min, Max: h.Max}
	for _, b := range h.Buckets {
		k := bucketKey(b)
		b.Count -= before[k]
		delete(before, k)
		if b.Count < 0 {
			return obs.HistogramSnapshot{}, false
		}
		d.Count += b.Count
		d.Buckets = append(d.Buckets, b)
	}
	if len(before) > 0 || d.Count == 0 {
		return obs.HistogramSnapshot{}, false
	}
	return d, true
}

// bucketKey identifies a histogram bucket by its bound.
func bucketKey(b obs.Bucket) obs.Bucket {
	return obs.Bucket{UpperBound: b.UpperBound, Overflow: b.Overflow}
}

// topSeries returns the n largest series of a family, ties broken by the
// snapshot's label order.
func topSeries(series []obs.CounterSnapshot, n int) []obs.CounterSnapshot {
	out := make([]obs.CounterSnapshot, len(series))
	copy(out, series)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Value > out[j].Value })
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// labelString renders a series' labels as k=v pairs.
func labelString(labels []obs.Label) string {
	parts := make([]string, len(labels))
	for i, l := range labels {
		parts[i] = l.Key + "=" + l.Value
	}
	return strings.Join(parts, ",")
}

// bar renders a fixed-width progress bar for frac in [0, 1].
func bar(frac float64, width int) string {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	fill := int(frac * float64(width))
	return "[" + strings.Repeat("#", fill) + strings.Repeat(".", width-fill) + "]"
}

// fmtRate renders a per-second rate with sensible precision.
func fmtRate(v float64) string {
	switch {
	case v >= 100:
		return fmt.Sprintf("%.0f", v)
	case v >= 1:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

// fmtSeconds renders a duration in seconds with unit scaling.
func fmtSeconds(v float64) string {
	switch {
	case v <= 0:
		return "0"
	case v < 1e-3:
		return fmt.Sprintf("%.0fµs", v*1e6)
	case v < 1:
		return fmt.Sprintf("%.1fms", v*1e3)
	default:
		return fmt.Sprintf("%.2fs", v)
	}
}

// deref unwraps an optional quantile (0 when absent).
func deref(p *float64) float64 {
	if p == nil {
		return 0
	}
	return *p
}
