package main

import (
	"math"
	"math/rand/v2"
	"slices"
	"time"

	"github.com/uwb-sim/concurrent-ranging/internal/channel"
	"github.com/uwb-sim/concurrent-ranging/internal/core"
	"github.com/uwb-sim/concurrent-ranging/internal/dsp"
	"github.com/uwb-sim/concurrent-ranging/internal/dw1000"
	"github.com/uwb-sim/concurrent-ranging/internal/obs"
	"github.com/uwb-sim/concurrent-ranging/internal/pulse"
)

// The fullbank workload is detection alone on the full 108-shape bank:
// CIRs rendered here, each holding fullbankResponses overlapping
// equal-distance responses plus receiver noise, detected in fixed-size
// batches through core.BatchDetector with the automatic threshold stop.
// One op is one CIR.
const fullbankResponses = 3

// fullbankTruth is one rendered response.
type fullbankTruth struct {
	shape int
	amp   complex128
	pos   float64 // peak position in CIR samples
}

// fullbankPool is the workload's input: CIRs and what was rendered into
// each.
type fullbankPool struct {
	bank   *pulse.Bank
	inputs []core.BatchInput
	truth  [][]fullbankTruth
}

// renderPool renders n CIRs from the seed. Responses of one CIR share a
// base delay and spread only over the ~8 ns delayed-TX quantization step,
// so they overlap; their shapes are drawn from the whole bank.
func renderPool(seed uint64, n int) (*fullbankPool, error) {
	bank, err := pulse.DefaultBank(dw1000.SampleInterval, pulse.NumShapes)
	if err != nil {
		return nil, err
	}
	r := rand.New(rand.NewPCG(seed, 0xf0b))
	noise := dw1000.DefaultNoiseRMS
	sigma := noise / math.Sqrt2
	p := &fullbankPool{bank: bank, inputs: make([]core.BatchInput, n), truth: make([][]fullbankTruth, n)}
	for i := range p.inputs {
		taps := make([]complex128, dw1000.CIRLength)
		base := 80 + r.Float64()*800
		for k := 0; k < fullbankResponses; k++ {
			mag := noise * (30 + r.Float64()*300)
			ph := r.Float64() * 2 * math.Pi
			t := fullbankTruth{
				shape: r.IntN(bank.Len()),
				amp:   complex(mag*math.Cos(ph), mag*math.Sin(ph)),
				pos:   base + (r.Float64()-0.5)*8,
			}
			bank.Shape(t.shape).RenderInto(taps, t.amp, t.pos, dw1000.SampleInterval)
			p.truth[i] = append(p.truth[i], t)
		}
		for j := range taps {
			taps[j] += complex(r.NormFloat64()*sigma, r.NormFloat64()*sigma)
		}
		p.inputs[i] = core.BatchInput{Taps: taps, NoiseRMS: noise}
	}
	return p, nil
}

// validDetection reports whether a detection is usable: finite values and
// stopped by the threshold, not by the iteration safety cap.
func validDetection(rs []core.Response) bool {
	if len(rs) >= core.DefaultMaxIterations {
		return false
	}
	for _, r := range rs {
		if !finite(r.Delay, real(r.Amplitude), imag(r.Amplitude)) {
			return false
		}
	}
	return true
}

// fidelity matches each rendered response to the nearest unclaimed
// detection and counts it found within half a sample; it returns the
// found count and the delay errors of found responses in meters.
func fidelity(truth []fullbankTruth, got []core.Response, errM []float64) (int, []float64) {
	used := make([]bool, len(got))
	found := 0
	for _, t := range truth {
		want := t.pos * dw1000.SampleInterval
		best, bestD := -1, math.Inf(1)
		for i, r := range got {
			if d := math.Abs(r.Delay - want); !used[i] && d < bestD {
				best, bestD = i, d
			}
		}
		if best >= 0 && bestD <= dw1000.SampleInterval/2 {
			used[best] = true
			found++
			errM = append(errM, bestD*channel.SpeedOfLight)
		}
	}
	return found, errM
}

// fullbankEngine builds the timed set-up: the bank, the batch engine and a
// warm-up batch that builds its per-worker detectors. The warm-up CIRs hold
// noise only, the same at every seed, so set-up time does not depend on the
// pool's content.
func fullbankEngine(workers, batch int, rec obs.Recorder) (*core.BatchDetector, error) {
	bank, err := pulse.DefaultBank(dw1000.SampleInterval, pulse.NumShapes)
	if err != nil {
		return nil, err
	}
	eng, err := core.NewBatchDetector(bank, core.DetectorConfig{}, workers)
	if err != nil {
		return nil, err
	}
	eng.SetRecorder(rec)
	r := rand.New(rand.NewPCG(0, 0x3a4))
	warm := make([]core.BatchInput, batch)
	sigma := dw1000.DefaultNoiseRMS / math.Sqrt2
	for i := range warm {
		taps := make([]complex128, dw1000.CIRLength)
		for j := range taps {
			taps[j] = complex(r.NormFloat64()*sigma, r.NormFloat64()*sigma)
		}
		warm[i] = core.BatchInput{Taps: taps, NoiseRMS: dw1000.DefaultNoiseRMS}
	}
	eng.DetectBatch(warm)
	return eng, nil
}

// fullbankRun is one batch loop's tally.
type fullbankRun struct {
	loop *loop
	// first holds each pool CIR's responses from the first pass; every
	// later pass must reproduce them.
	first    [][]core.Response
	mismatch int
	// markAfter requests, mark fires once, outside the timed part.
	markAfter int
	mark      func()
}

// runBatches cycles the pool through eng in batches for d, at least
// minBatches batches. The client copies each batch's responses out before
// submitting the next, as a caller keeping results must.
func (f *fullbankRun) runBatches(eng *core.BatchDetector, p *fullbankPool, batch int, d time.Duration, minBatches int) {
	n := len(p.inputs)
	f.first = make([][]core.Response, n)
	off, pass, done := 0, 0, 0
	kept := make([][]core.Response, batch)
	f.loop = runLoop(d, minBatches, eng.Workers(), func() (time.Duration, int, int) {
		t0 := time.Now()
		res := eng.DetectBatch(p.inputs[off : off+batch])
		for i := range res {
			kept[i] = append([]core.Response(nil), res[i].Responses...)
		}
		el := time.Since(t0)
		bad := 0
		for i := range res {
			if res[i].Err != nil || !validDetection(kept[i]) {
				bad++
			}
			if pass == 0 {
				f.first[off+i] = kept[i]
			} else if !slices.Equal(f.first[off+i], kept[i]) {
				f.mismatch++
			}
		}
		if off += batch; off == n {
			off = 0
			pass++
		}
		if done++; done == f.markAfter && f.mark != nil {
			f.mark()
		}
		return el, batch - bad, bad
	})
}

// fullbankBatch is the batch size: two CIRs per worker.
func fullbankBatch(workers int) int { return 2 * workers }

// poolSize rounds the configured pool to whole batches.
func poolSize(cfg config) int {
	b := fullbankBatch(cfg.workers)
	return max(cfg.sizes.fullbankPool/b, 1) * b
}

func runFullbankBare(cfg config) (*outcome, error) {
	batch := fullbankBatch(cfg.workers)
	p, err := renderPool(cfg.seed, poolSize(cfg))
	if err != nil {
		return nil, err
	}
	var eng *core.BatchDetector
	setup, err := medianSetup(cfg.sizes.setups, cfg.workers, func() error {
		if eng != nil {
			eng.Close()
		}
		var err error
		eng, err = fullbankEngine(cfg.workers, batch, nil)
		return err
	})
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	// At least one full pass: found_ratio and err_m cover the whole pool.
	f := &fullbankRun{}
	f.runBatches(eng, p, batch, duration(cfg.seconds), len(p.inputs)/batch)
	heap := liveHeapMB()
	if err := f.check(p, batch); err != nil {
		return nil, err
	}
	found, rendered := 0, 0
	var errM []float64
	for i, got := range f.first {
		var n int
		n, errM = fidelity(p.truth[i], got, errM)
		found += n
		rendered += len(p.truth[i])
	}
	values := map[string]float64{
		"found_ratio": ratio(float64(found), float64(rendered)),
		"err_m":       median(errM),
	}
	f.loop.endToEnd(values, heap, setup)
	return f.loop.outcome(values), nil
}

// check requires every pass to repeat the first and the first batch to
// equal a warm sequential Detect loop with the batch workers' config.
func (f *fullbankRun) check(p *fullbankPool, batch int) error {
	if f.mismatch > 0 {
		return checkFailed("fullbank: %d batch results differ from the first pass", f.mismatch)
	}
	det, err := core.NewDetector(p.bank, core.DetectorConfig{Workers: 1})
	if err != nil {
		return err
	}
	if _, err := det.Detect(p.inputs[0].Taps, p.inputs[0].NoiseRMS); err != nil {
		return err
	}
	for i, in := range p.inputs[:batch] {
		want, err := det.Detect(in.Taps, in.NoiseRMS)
		if err != nil {
			return err
		}
		if !slices.Equal(want, f.first[i]) {
			return checkFailed("fullbank CIR %d: batch %+v, sequential Detect %+v", i, f.first[i], want)
		}
	}
	return nil
}

func runFullbankTraced(cfg config) (*outcome, error) {
	batch := fullbankBatch(cfg.workers)
	p, err := renderPool(cfg.seed, poolSize(cfg))
	if err != nil {
		return nil, err
	}
	bare, err := fullbankEngine(cfg.workers, batch, nil)
	if err != nil {
		return nil, err
	}
	// The per-CIR counts and the per-call timings cover the first layerCIRs
	// CIRs of the pool, whole batches.
	layerBatches := max(cfg.sizes.fullbankLayerCIRs/batch, 1)
	layerCIRs := layerBatches * batch
	b := &fullbankRun{}
	b.runBatches(bare, p, batch, halves(cfg.seconds), 1)
	bare.Close()

	reg := obs.NewRegistry()
	eng, err := fullbankEngine(cfg.workers, batch, reg)
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	warm := reg.Snapshot()
	var counted obs.Snapshot
	f := &fullbankRun{markAfter: layerBatches, mark: func() { counted = reg.Snapshot() }}
	f.runBatches(eng, p, batch, halves(cfg.seconds), layerBatches)
	if err := b.check(p, batch); err != nil {
		return nil, err
	}
	if err := f.check(p, batch); err != nil {
		return nil, err
	}
	values, err := fullbankLayers(p, layerCIRs, f.loop.cal.speed())
	if err != nil {
		return nil, err
	}
	// Per-CIR counts over exactly the counted CIRs: deterministic.
	n := float64(layerCIRs)
	counter := func(name string) float64 {
		return float64(counted.CounterValue(name)-warm.CounterValue(name)) / n
	}
	histSum := func(name string) float64 {
		h1, _ := counted.HistogramByName(name)
		h0, _ := warm.HistogramByName(name)
		return h1.Sum - h0.Sum
	}
	iters := histSum(core.MetricDetectIterations)
	values["detector.iterations"] = iters / n
	values["detector.template_evals"] = counter(core.MetricDetectTemplateEvals)
	values["detector.refine_steps"] = histSum(core.MetricDetectRefineSteps) / n
	values["detector.useful_ratio"] = ratio(histSum(core.MetricDetectResponses), iters)
	values["dsp.upsample_execs"] = counter(core.MetricUpsampleExecs)
	values["dsp.bank_transforms"] = counter(core.MetricBankTransforms)
	values["dsp.bank_shift_subtracts"] = counter(core.MetricBankShiftSubtracts)
	var items []float64
	for _, c := range counted.CounterSeries(core.MetricBatchWorkerItems) {
		var before int64
		for _, w := range warm.CounterSeries(core.MetricBatchWorkerItems) {
			if slices.Equal(w.Labels, c.Labels) {
				before = w.Value
			}
		}
		items = append(items, float64(c.Value-before))
	}
	// Batch balance: the busiest worker's items over the mean (1 = even).
	if len(items) > 0 {
		var sum float64
		for _, v := range items {
			sum += v
		}
		values["detector.batch_balance"] = ratio(slices.Max(items), sum/float64(len(items)))
	}
	// Share of one warm Detect each dsp call explains: calls per CIR ×
	// host time per call over the Detect time.
	detectUS := values["core.detect_ms"] * 1e3
	values["dsp.upsample_share"] = ratio(values["dsp.upsample_execs"]*values["dsp.upsample_us"], detectUS)
	values["dsp.spectral_ingest_share"] = ratio(values["dsp.bank_transforms"]*values["dsp.spectral_ingest_us"], detectUS)
	values["dsp.spectral_scan_share"] = ratio(values["detector.template_evals"]*values["dsp.spectral_scan_us"], detectUS)
	values["dsp.shift_subtract_share"] = ratio(values["dsp.bank_shift_subtracts"]*values["dsp.shift_subtract_us"], detectUS)
	values["pulse.render_share"] = ratio(histSum(core.MetricDetectResponses)/n*values["pulse.render_us"], detectUS)
	values["trace_overhead"] = traceOverhead(b.loop.opsPerSecond(), f.loop.opsPerSecond())
	return f.loop.tracedOutcome(b.loop, values), nil
}

// fullbankLayers times, on the first n pool CIRs, a warm single-goroutine
// Detect with the batch workers' config and the dsp and pulse calls it is
// made of: the 4× upsample, the spectral ingest, one template scan, one
// analytic shift-subtract and one time-domain pulse render. Times are
// scaled by speed, the host speed the traced loop measured.
func fullbankLayers(p *fullbankPool, n int, speed float64) (map[string]float64, error) {
	n = min(n, len(p.inputs))
	det, err := core.NewDetector(p.bank, core.DetectorConfig{Workers: 1})
	if err != nil {
		return nil, err
	}
	if _, err := det.Detect(p.inputs[0].Taps, p.inputs[0].NoiseRMS); err != nil {
		return nil, err
	}
	var detect callTimer
	for _, in := range p.inputs[:n] {
		t0 := time.Now()
		_, err := det.Detect(in.Taps, in.NoiseRMS)
		detect.since(t0)
		if err != nil {
			return nil, err
		}
	}
	const up = core.DefaultUpsample
	ts := dw1000.SampleInterval
	plan, err := dsp.NewUpsamplePlan(dw1000.CIRLength, up)
	if err != nil {
		return nil, err
	}
	templates := make([][]complex128, p.bank.Len())
	for i := range templates {
		templates[i] = p.bank.Shape(i).Template(ts / up)
	}
	sbank, err := dsp.NewSpectralBank(templates, dw1000.CIRLength*up)
	if err != nil {
		return nil, err
	}
	upBuf := make([]complex128, dw1000.CIRLength*up)
	residual := make([]complex128, dw1000.CIRLength)
	scratch := sbank.NewScratch()
	var upsample, ingest, scan, shift, render callTimer
	for i, in := range p.inputs[:n] {
		t0 := time.Now()
		sig := plan.Execute(upBuf, in.Taps)
		upsample.since(t0)
		t0 = time.Now()
		err := sbank.Ingest(sig)
		ingest.since(t0)
		if err != nil {
			return nil, err
		}
		for t := 0; t < sbank.NumTemplates(); t++ {
			t0 = time.Now()
			_, _, _, err := sbank.ScanBest(scratch, t, nil)
			scan.since(t0)
			if err != nil {
				return nil, err
			}
		}
		copy(residual, in.Taps)
		for _, tr := range p.truth[i] {
			t0 = time.Now()
			err := sbank.ShiftSubtract(tr.shape, tr.amp, tr.pos*up, nil)
			shift.since(t0)
			if err != nil {
				return nil, err
			}
			t0 = time.Now()
			p.bank.Shape(tr.shape).RenderInto(residual, -tr.amp, tr.pos, ts)
			render.since(t0)
		}
	}
	return map[string]float64{
		"core.detect_ms":         detect.meanUS() * speed / 1e3,
		"dsp.upsample_us":        upsample.meanUS() * speed,
		"dsp.spectral_ingest_us": ingest.meanUS() * speed,
		"dsp.spectral_scan_us":   scan.meanUS() * speed,
		"dsp.shift_subtract_us":  shift.meanUS() * speed,
		"pulse.render_us":        render.meanUS() * speed,
	}, nil
}
