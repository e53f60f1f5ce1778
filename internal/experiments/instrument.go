package experiments

import (
	"sync/atomic"
	"time"

	"github.com/uwb-sim/concurrent-ranging/internal/core"
	"github.com/uwb-sim/concurrent-ranging/internal/obs"
	"github.com/uwb-sim/concurrent-ranging/internal/obs/trace"
)

// Metric names the experiment harness records.
const (
	// MetricTrialSeconds is the per-trial wall time (a wall-time metric:
	// reports strip it before determinism comparisons).
	MetricTrialSeconds = "experiments.trial_seconds"
	// MetricTrials counts completed Monte-Carlo trials.
	MetricTrials = "experiments.trials"
	// MetricTrialsByExperiment is the labeled companion of MetricTrials:
	// trials counted per experiment (Env.Experiment). Recorded only when
	// the Env's Recorder supports labeled series (obs.VecSource; the
	// Registry does).
	MetricTrialsByExperiment = "experiments.experiment_trials"
	// MetricCampaignDoneLive and MetricCampaignTotalLive are live
	// campaign-progress gauges for dashboards (crtop's progress bar).
	// The obs.LiveMetricSuffix marks them wall-time-class: their values
	// depend on scheduling, so StripWallTime drops them from reports.
	MetricCampaignDoneLive  = "experiments.campaign_done" + obs.LiveMetricSuffix
	MetricCampaignTotalLive = "experiments.campaign_total" + obs.LiveMetricSuffix
)

// Progress is one campaign progress update.
type Progress struct {
	// Done and Total count trials (or campaign units) finished vs
	// planned.
	Done, Total int
	// Elapsed is the wall time since the campaign started.
	Elapsed time.Duration
	// Remaining estimates the time to completion from the mean trial
	// rate so far (0 until at least one trial finished).
	Remaining time.Duration
}

// ProgressFunc receives progress updates. It may be called concurrently
// from campaign workers and must be cheap; throttling and rendering are
// the callback's business (crbench's printer rate-limits to a few updates
// per second).
type ProgressFunc func(Progress)

// Env is the run context of one experiment: where its metrics, flight
// spans and progress go, and the name its labeled series carry. Every
// field is optional and a nil *Env runs the experiment uninstrumented.
// Experiments read their Env and never store it, so two runs with their
// own Envs can share a process.
type Env struct {
	// Recorder, when non-nil, receives per-trial timing and is attached
	// to every detector and network the experiment builds. It must be
	// safe for concurrent use (obs.Registry is).
	Recorder obs.Recorder
	// Flight, when non-nil, is the detection flight recorder attached to
	// every detector and network the experiment builds: campaigns and
	// detector runs open trace spans on it (a *trace.Tracer is safe for
	// concurrent use).
	Flight *trace.Tracer
	// Progress, when non-nil, receives per-trial campaign progress.
	Progress ProgressFunc
	// Experiment labels the MetricTrialsByExperiment series; "" records
	// none.
	Experiment string
}

// recorder returns the Env's Recorder, or nil for a nil Env.
func (e *Env) recorder() obs.Recorder {
	if e == nil {
		return nil
	}
	return e.Recorder
}

// flight returns the Env's flight recorder, or nil for a nil Env.
func (e *Env) flight() *trace.Tracer {
	if e == nil {
		return nil
	}
	return e.Flight
}

// instrumentDetector attaches the Env's recorder and flight recorder (if
// any) to a freshly built detector and returns it, so experiment code can
// wrap core.NewDetector results in one call.
func (e *Env) instrumentDetector(det *core.Detector) *core.Detector {
	if rec := e.recorder(); rec != nil {
		det.SetRecorder(rec)
	}
	if tr := e.flight(); tr != nil {
		det.SetFlightRecorder(tr)
	}
	return det
}

// instrumentBatch attaches the Env's recorder and flight recorder (if
// any) to a freshly built batch engine and wires its per-item progress
// into the campaign meter, so batch-path experiments report the same
// metrics/progress stream as loop-path ones.
func (e *Env) instrumentBatch(bd *core.BatchDetector, m *meter) *core.BatchDetector {
	if rec := e.recorder(); rec != nil {
		bd.SetRecorder(rec)
	}
	if tr := e.flight(); tr != nil {
		bd.SetFlightRecorder(tr)
	}
	if m != nil {
		bd.SetProgress(func(int) { m.trialDone(0) })
	}
	return bd
}

// wallNow is this package's single sanctioned wall-clock read. Every
// duration derived from it flows into progress callbacks or a *_seconds
// field/metric, all of which StripWallTime removes from run reports, so
// wall time never reaches a determinism-checked output. New wall-clock
// uses must go through here (crlint's detrand analyzer enforces it).
func wallNow() time.Time {
	return time.Now() //lint:allow detrand wall time feeds only StripWallTime-stripped outputs
}

// wallSince returns the elapsed wall time since t0 (see wallNow).
func wallSince(t0 time.Time) time.Duration {
	return time.Since(t0) //lint:allow detrand wall time feeds only StripWallTime-stripped outputs
}

// meter tracks one campaign's trial progress. A nil meter is inert, so
// callers create one unconditionally and tick without guards; newMeter
// returns nil when the Env records nothing.
type meter struct {
	total    int
	done     atomic.Int64
	terminal atomic.Bool // a Progress{Done: Total} update has been pushed
	start    time.Time
	progress ProgressFunc
	rec      obs.Recorder
	// expTrials is the per-experiment labeled trial counter, resolved
	// once at campaign start (nil when the Env names no experiment or
	// its Recorder has no labeled series).
	expTrials *obs.Counter
}

// newMeter starts a campaign meter over total trials, or returns nil when
// env has neither a Recorder nor a Progress sink.
func newMeter(env *Env, total int) *meter {
	if env == nil || (env.Progress == nil && env.Recorder == nil) {
		return nil
	}
	m := &meter{total: total, start: wallNow(), progress: env.Progress, rec: env.Recorder}
	if m.rec != nil {
		if vs, ok := m.rec.(obs.VecSource); ok && env.Experiment != "" {
			m.expTrials = vs.CounterVec(MetricTrialsByExperiment, "experiment").With(env.Experiment)
		}
		m.rec.SetGauge(MetricCampaignTotalLive, float64(total))
		m.rec.SetGauge(MetricCampaignDoneLive, 0)
	}
	return m
}

// trialDone records one finished trial of the given duration and pushes a
// progress update. Safe for concurrent use; a nil meter does nothing.
func (m *meter) trialDone(d time.Duration) {
	if m == nil {
		return
	}
	done := int(m.done.Add(1))
	// Multi-phase campaigns can tick a meter past its planned total (the
	// phases share one meter); clamp so Done never overshoots Total and the
	// estimate reads "finished" instead of silently pinning to a
	// meaningless zero next to an impossible count.
	if done > m.total {
		done = m.total
	}
	if m.rec != nil {
		m.rec.Observe(MetricTrialSeconds, d.Seconds())
		m.rec.Count(MetricTrials, 1)
		if m.expTrials != nil {
			m.expTrials.Inc()
		}
		m.rec.SetGauge(MetricCampaignDoneLive, float64(done))
	}
	if m.progress == nil {
		return
	}
	if done >= m.total {
		m.terminal.Store(true)
	}
	elapsed := wallSince(m.start)
	var remaining time.Duration
	if done > 0 && done < m.total {
		remaining = time.Duration(float64(elapsed) / float64(done) * float64(m.total-done))
	}
	m.progress(Progress{Done: done, Total: m.total, Elapsed: elapsed, Remaining: remaining})
}

// finish pushes the terminal Progress{Done: Total} update if no trial tick
// ever did: a zero-trial campaign never ticks at all, and a campaign can
// end short of its planned total. Idempotent; a nil meter does nothing.
func (m *meter) finish() {
	if m == nil {
		return
	}
	if m.rec != nil {
		m.rec.SetGauge(MetricCampaignDoneLive, float64(m.total))
	}
	if m.progress == nil {
		return
	}
	if m.terminal.Swap(true) {
		return
	}
	m.progress(Progress{Done: m.total, Total: m.total, Elapsed: wallSince(m.start)})
}

// timeTrial runs one trial body under the meter's clock.
func (m *meter) timeTrial(fn func() error) error {
	if m == nil {
		return fn()
	}
	t0 := wallNow()
	err := fn()
	m.trialDone(wallSince(t0))
	return err
}
