package experiments

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strings"
	"sync"
	"testing"

	"github.com/uwb-sim/concurrent-ranging/internal/core"
	"github.com/uwb-sim/concurrent-ranging/internal/obs"
	"github.com/uwb-sim/concurrent-ranging/internal/sim"
)

func TestMeterDisabledIsNil(t *testing.T) {
	for _, env := range []*Env{nil, {}, {Experiment: "fig4"}} {
		if m := newMeter(env, 10); m != nil {
			t.Fatalf("newMeter(%+v) must return nil without a Recorder or Progress sink", env)
		}
	}
	// A nil meter must be inert, not panic.
	var m *meter
	m.trialDone(0)
	if err := m.timeTrial(func() error { return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestMeterRecordsTrialsAndProgress(t *testing.T) {
	reg := obs.NewRegistry()
	var mu sync.Mutex
	var updates []Progress
	env := &Env{
		Recorder: reg,
		Progress: func(p Progress) {
			mu.Lock()
			updates = append(updates, p)
			mu.Unlock()
		},
	}

	const n = 7
	_, err := parallelMap(env, n, func(i int) (int, error) { return i, nil })
	if err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	if got := snap.CounterValue(MetricTrials); got != n {
		t.Fatalf("%s = %d, want %d", MetricTrials, got, n)
	}
	h, ok := snap.HistogramByName(MetricTrialSeconds)
	if !ok || h.Count != n {
		t.Fatalf("%s histogram count = %+v, want %d observations", MetricTrialSeconds, h, n)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(updates) != n {
		t.Fatalf("%d progress updates, want %d", len(updates), n)
	}
	// Done values are a permutation of 1..n (workers race), Total fixed,
	// and the final update reports completion with zero remaining.
	seen := map[int]bool{}
	last := Progress{}
	for _, p := range updates {
		if p.Total != n || p.Done < 1 || p.Done > n || seen[p.Done] {
			t.Fatalf("bad progress update %+v", p)
		}
		seen[p.Done] = true
		if p.Done == n {
			last = p
		}
	}
	if last.Done != n || last.Remaining != 0 {
		t.Fatalf("final update %+v, want Done=%d Remaining=0", last, n)
	}
}

func TestMeterClampAndTerminalUpdate(t *testing.T) {
	cases := []struct {
		name   string
		total  int
		ticks  int
		finish bool
		// wantFinal is the expected last update; wantCount the update count.
		wantFinal Progress
		wantCount int
	}{
		{
			name: "overticked meter clamps to total", total: 2, ticks: 4, finish: false,
			wantFinal: Progress{Done: 2, Total: 2}, wantCount: 4,
		},
		{
			name: "zero-trial campaign emits terminal update on finish", total: 0, ticks: 0, finish: true,
			wantFinal: Progress{Done: 0, Total: 0}, wantCount: 1,
		},
		{
			name: "finish after completion does not duplicate", total: 3, ticks: 3, finish: true,
			wantFinal: Progress{Done: 3, Total: 3}, wantCount: 3,
		},
		{
			name: "finish on a short campaign emits Done=Total", total: 5, ticks: 2, finish: true,
			wantFinal: Progress{Done: 5, Total: 5}, wantCount: 3,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var updates []Progress
			m := &meter{total: tc.total, start: wallNow(), progress: func(p Progress) {
				updates = append(updates, p)
			}}
			for i := 0; i < tc.ticks; i++ {
				m.trialDone(0)
			}
			if tc.finish {
				m.finish()
			}
			if len(updates) != tc.wantCount {
				t.Fatalf("%d updates, want %d: %+v", len(updates), tc.wantCount, updates)
			}
			for _, p := range updates {
				if p.Done > p.Total {
					t.Fatalf("update overshoots total: %+v", p)
				}
				if p.Remaining < 0 {
					t.Fatalf("negative ETA: %+v", p)
				}
			}
			last := updates[len(updates)-1]
			if last.Done != tc.wantFinal.Done || last.Total != tc.wantFinal.Total || last.Remaining != 0 {
				t.Fatalf("final update %+v, want Done=%d Total=%d Remaining=0",
					last, tc.wantFinal.Done, tc.wantFinal.Total)
			}
		})
	}
	// finish is nil-safe like every other meter method.
	var nilMeter *meter
	nilMeter.finish()
}

func TestMeterLabelsTrialsByExperiment(t *testing.T) {
	reg := obs.NewRegistry()
	m := newMeter(&Env{Recorder: reg, Experiment: "sec5"}, 3)
	for i := 0; i < 3; i++ {
		m.trialDone(0)
	}
	m.finish()
	m2 := newMeter(&Env{Recorder: reg, Experiment: "fig4"}, 2)
	m2.trialDone(0)
	m2.finish()

	snap := reg.Snapshot()
	perExp := map[string]int64{}
	for _, c := range snap.CounterSeries(MetricTrialsByExperiment) {
		perExp[c.Labels[0].Value] = c.Value
	}
	if perExp["sec5"] != 3 || perExp["fig4"] != 1 {
		t.Fatalf("per-experiment trials = %v, want sec5:3 fig4:1", perExp)
	}
	if got := snap.CounterValue(MetricTrials); got != 4 {
		t.Fatalf("%s = %d, want 4", MetricTrials, got)
	}
}

func TestMeterWithoutExperimentStaysUnlabeled(t *testing.T) {
	reg := obs.NewRegistry()
	m := newMeter(&Env{Recorder: reg}, 2)
	m.trialDone(0)
	m.finish()
	if series := reg.Snapshot().CounterSeries(MetricTrialsByExperiment); len(series) != 0 {
		t.Fatalf("unattributed trials grew labeled series: %+v", series)
	}
}

func TestMeterCampaignGauges(t *testing.T) {
	reg := obs.NewRegistry()
	m := newMeter(&Env{Recorder: reg}, 5)
	gauge := func(name string) float64 {
		v, ok := reg.Snapshot().GaugeValue(name)
		if !ok {
			t.Fatalf("gauge %s not set", name)
		}
		return v
	}
	if got := gauge(MetricCampaignTotalLive); got != 5 {
		t.Fatalf("total gauge = %g, want 5", got)
	}
	if got := gauge(MetricCampaignDoneLive); got != 0 {
		t.Fatalf("done gauge at start = %g, want 0", got)
	}
	m.trialDone(0)
	m.trialDone(0)
	if got := gauge(MetricCampaignDoneLive); got != 2 {
		t.Fatalf("done gauge = %g, want 2", got)
	}
	// Over-ticking clamps the gauge at total, and finish pins it there.
	for i := 0; i < 10; i++ {
		m.trialDone(0)
	}
	if got := gauge(MetricCampaignDoneLive); got != 5 {
		t.Fatalf("over-ticked done gauge = %g, want clamp at 5", got)
	}
	m.finish()
	if got := gauge(MetricCampaignDoneLive); got != 5 {
		t.Fatalf("done gauge after finish = %g, want 5", got)
	}
}

func TestInstrumentedExperimentsRecord(t *testing.T) {
	// A tiny Sec5 + Campaign run — the crbench smoke pair — must populate
	// trial timing and simulator counters through the Env's recorder.
	reg := obs.NewRegistry()
	env := &Env{Recorder: reg}

	if _, err := Sec5(env, 5, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := Campaign(env, []int{3}, 1); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	if got := snap.CounterValue(MetricTrials); got != 3*5+2 {
		t.Fatalf("%s = %d, want %d (3 shapes x 5 trials + 2 campaign units)",
			MetricTrials, got, 3*5+2)
	}
	if got := snap.CounterValue(sim.MetricFramesOnAir); got == 0 {
		t.Fatalf("%s = 0, want > 0", sim.MetricFramesOnAir)
	}
	if h, ok := snap.HistogramByName(MetricTrialSeconds); !ok || h.Count == 0 || h.Sum <= 0 {
		t.Fatalf("%s not populated: %+v", MetricTrialSeconds, h)
	}
}

func TestInstrumentationDoesNotChangeResults(t *testing.T) {
	// The observation-only contract, end to end: a full experiment with
	// instrumentation enabled returns bit-identical numbers.
	run := func(env *Env) *Fig4Result {
		r, err := Fig4(env, 3, 7, false)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	plain := run(nil)
	instrumented := run(&Env{Recorder: obs.NewRegistry(), Progress: func(Progress) {}, Experiment: "fig4"})

	for i := range plain.MeanDistance {
		if plain.MeanDistance[i] != instrumented.MeanDistance[i] ||
			plain.StdDistance[i] != instrumented.StdDistance[i] ||
			plain.PerResponderRate[i] != instrumented.PerResponderRate[i] {
			t.Fatalf("instrumentation changed results at responder %d: %+v vs %+v",
				i, plain, instrumented)
		}
	}
}

func TestInstrumentHelpersNilSafe(t *testing.T) {
	// A nil Env must pass values through untouched and never panic.
	var env *Env
	if det := env.instrumentDetector(&core.Detector{}); det == nil {
		t.Fatal("instrumentDetector returned nil")
	}
	net, nodes, err := network(env, sim.NetworkConfig{}, sim.NodeConfig{ID: 0})
	if err != nil || net == nil || len(nodes) != 1 {
		t.Fatalf("network(nil env) = %v, %v, %v", net, nodes, err)
	}
}

func TestEnvsAreIsolated(t *testing.T) {
	// Two campaigns share the process, each with its own Env and
	// registry: every registry must see only its own run's trials.
	const sec5Trials = 4
	runs := []struct {
		name  string
		run   func(env *Env) error
		total int64
	}{
		{"sec5", func(env *Env) error {
			_, err := Sec5(env, sec5Trials, 1)
			return err
		}, 3 * sec5Trials},
		{"campaign", func(env *Env) error {
			_, err := Campaign(env, []int{3, 5}, 1)
			return err
		}, 2 * 2},
	}
	regs := make([]*obs.Registry, len(runs))
	errs := make([]error, len(runs))
	var wg sync.WaitGroup
	for i, r := range runs {
		regs[i] = obs.NewRegistry()
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = r.run(&Env{Recorder: regs[i], Progress: func(Progress) {}, Experiment: r.name})
		}()
	}
	wg.Wait()
	for i, r := range runs {
		if errs[i] != nil {
			t.Fatalf("%s: %v", r.name, errs[i])
		}
		snap := regs[i].Snapshot()
		if got := snap.CounterValue(MetricTrials); got != r.total {
			t.Errorf("%s registry: %s = %d, want %d", r.name, MetricTrials, got, r.total)
		}
		series := snap.CounterSeries(MetricTrialsByExperiment)
		if len(series) != 1 || series[0].Labels[0].Value != r.name || series[0].Value != r.total {
			t.Errorf("%s registry: %s series %+v, want only {experiment=%s} = %d",
				r.name, MetricTrialsByExperiment, series, r.name, r.total)
		}
	}
}

func TestMonteCarloExperimentsMeterEveryTrial(t *testing.T) {
	// Every independently seeded trial ticks the campaign meter once,
	// whichever worker runs it.
	const trials = 2
	for _, c := range []struct {
		name  string
		run   func(env *Env) error
		total int64
	}{
		{"fig4", func(env *Env) error { _, err := Fig4(env, trials, 1, false); return err }, trials},
		{"sec5", func(env *Env) error { _, err := Sec5(env, trials, 1); return err }, 3 * trials},
		{"table1", func(env *Env) error { _, err := Table1(env, trials, 1); return err }, 10 * trials},
		{"sec6", func(env *Env) error { _, err := Sec6(env, trials, 1); return err }, trials},
		{"fig8", func(env *Env) error { _, err := Fig8(env, trials, 1, false); return err }, trials},
		{"capture", func(env *Env) error { _, err := Capture(env, trials, 1); return err }, 10 * trials},
		{"upsample", func(env *Env) error { _, err := AblationUpsample(env, trials, 1); return err }, 5 * trials},
		{"quantization", func(env *Env) error { _, err := AblationQuantization(env, trials, 1); return err }, 2 * trials},
		{"threshold", func(env *Env) error { _, err := AblationThreshold(env, trials, 1); return err }, 6 * trials},
		{"refinement", func(env *Env) error { _, err := AblationRefinement(env, trials, 1); return err }, 2 * trials},
		{"slotplan", func(env *Env) error { _, err := AblationSlotPlan(env, trials, 1); return err }, 6 * trials},
	} {
		reg := obs.NewRegistry()
		if err := c.run(&Env{Recorder: reg, Experiment: c.name}); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		snap := reg.Snapshot()
		if got := snap.CounterValue(MetricTrials); got != c.total {
			t.Errorf("%s: %s = %d, want %d", c.name, MetricTrials, got, c.total)
		}
		series := snap.CounterSeries(MetricTrialsByExperiment)
		if len(series) != 1 || series[0].Labels[0].Value != c.name || series[0].Value != c.total {
			t.Errorf("%s: %s series %+v, want only {experiment=%s} = %d",
				c.name, MetricTrialsByExperiment, series, c.name, c.total)
		}
	}
}

func TestTrialMetricsIndependentOfWorkerCount(t *testing.T) {
	// The trial loop hands trials to whichever worker is free, yet the
	// stripped metrics — dsp plan counters and histogram sums included —
	// must not depend on how many workers there are.
	stripped := func(procs int) []byte {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		reg := obs.NewRegistry()
		env := &Env{Recorder: reg, Experiment: "workers"}
		// Four trials on four workers leave trial 0's worker, which also
		// draws the matched-filter figure, with no later Detect.
		if _, err := Fig4(env, 4, 3, false); err != nil {
			t.Fatal(err)
		}
		if _, err := AblationUpsample(env, 3, 5); err != nil {
			t.Fatal(err)
		}
		report := &obs.RunReport{Metrics: reg.Snapshot()}
		data, err := json.Marshal(report.StripWallTime().Metrics)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	one, four := stripped(1), stripped(4)
	if !bytes.Equal(one, four) {
		t.Fatalf("stripped metrics differ between 1 and 4 workers:\n%s\n---\n%s", one, four)
	}
	for _, name := range []string{"dsp.upsample_execs", "dsp.bank_filters", "detector.margin_db"} {
		if !strings.Contains(string(one), `"`+name+`"`) {
			t.Errorf("metric %s missing from the compared snapshot", name)
		}
	}
}
