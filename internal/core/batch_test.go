package core

import (
	"math"
	"math/rand/v2"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/uwb-sim/concurrent-ranging/internal/dsp"
	"github.com/uwb-sim/concurrent-ranging/internal/dw1000"
	"github.com/uwb-sim/concurrent-ranging/internal/pulse"
)

// makeBatchCIR is makeCIR with a selectable CIR length.
func makeBatchCIR(t *testing.T, n int, pulses []pulseAt, noiseRMS float64, seed uint64) []complex128 {
	t.Helper()
	taps := make([]complex128, n)
	for _, p := range pulses {
		p.shape.RenderInto(taps, p.amp, p.delay/ts, ts)
	}
	if noiseRMS > 0 {
		rng := rand.New(rand.NewPCG(seed, 17))
		sigma := noiseRMS / math.Sqrt2
		for i := range taps {
			taps[i] += complex(rng.NormFloat64()*sigma, rng.NormFloat64()*sigma)
		}
	}
	return taps
}

// batchStreamInputs builds a deterministic stream of same-length CIRs with
// one or two responders each.
func batchStreamInputs(t *testing.T, bank *pulse.Bank, n, count int, noise float64) []BatchInput {
	t.Helper()
	inputs := make([]BatchInput, count)
	for i := range inputs {
		pulses := []pulseAt{{
			shape: bank.Shape(i % bank.Len()),
			delay: (120 + 37*float64(i%16)) * ts,
			amp:   complex(0.02, 0.008),
		}}
		if i%3 == 0 {
			pulses = append(pulses, pulseAt{
				shape: bank.Shape((i + 1) % bank.Len()),
				delay: (520 + 11*float64(i%9)) * ts,
				amp:   complex(-0.012, 0.015),
			})
		}
		inputs[i] = BatchInput{
			Taps:     makeBatchCIR(t, n, pulses, noise, uint64(i)+1),
			NoiseRMS: noise,
		}
	}
	return inputs
}

func newTestBank(t *testing.T, nShapes int) *pulse.Bank {
	t.Helper()
	bank, err := pulse.DefaultBank(ts, nShapes)
	if err != nil {
		t.Fatal(err)
	}
	return bank
}

// requireSameResponses asserts bit-identical response sets.
func requireSameResponses(t *testing.T, label string, got, want []Response) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d responses, want %d", label, len(got), len(want))
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("%s: response %d = %+v, want %+v", label, k, got[k], want[k])
		}
	}
}

func TestDetectBatchMatchesDetectAtAnyWorkerCount(t *testing.T) {
	const noise = 1e-4
	for _, tc := range []struct {
		name   string
		shapes int
		cfg    DetectorConfig
	}{
		{"spectral", 8, DetectorConfig{}},
		{"tracked", 3, DetectorConfig{}},
		{"reference", 3, DetectorConfig{Mode: ModeReference}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bank := newTestBank(t, tc.shapes)
			inputs := batchStreamInputs(t, bank, dw1000.CIRLength, 7, noise)
			// The sequential ground truth: one detector, one Detect per CIR.
			ref, err := NewDetector(bank, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := make([][]Response, len(inputs))
			for i, in := range inputs {
				if want[i], err = ref.Detect(in.Taps, in.NoiseRMS); err != nil {
					t.Fatal(err)
				}
			}
			for _, workers := range []int{1, 2, 3, 5} {
				eng, err := NewBatchDetector(bank, tc.cfg, workers)
				if err != nil {
					t.Fatal(err)
				}
				res := eng.DetectBatch(inputs)
				if len(res) != len(inputs) {
					t.Fatalf("workers=%d: %d results, want %d", workers, len(res), len(inputs))
				}
				for i := range res {
					if res[i].Err != nil {
						t.Fatalf("workers=%d item %d: %v", workers, i, res[i].Err)
					}
					requireSameResponses(t, tc.name, res[i].Responses, want[i])
				}
				// A second batch through the same engine reuses all state
				// and must still be bit-identical.
				res = eng.DetectBatch(inputs)
				for i := range res {
					requireSameResponses(t, tc.name+" second batch", res[i].Responses, want[i])
				}
				eng.Close()
			}
		})
	}
}

// TestDetectorsHoldOneBank: every detector holds only the bank its search
// path reads, batch worker detectors included, and the batch engine's
// prototype holds no search state at all.
func TestDetectorsHoldOneBank(t *testing.T) {
	bank := newTestBank(t, 8)
	inputs := batchStreamInputs(t, bank, dw1000.CIRLength, 4, 1e-4)
	for _, tc := range []struct {
		name     string
		cfg      DetectorConfig
		spectral bool
	}{
		{"default", DetectorConfig{}, true},
		{"reference", DetectorConfig{Mode: ModeReference}, false},
		{"grid", DetectorConfig{DisableRefinement: true}, true},
	} {
		check := func(label string, d *Detector) {
			t.Helper()
			if (d.sbank != nil) != tc.spectral || (d.fbank != nil) == tc.spectral {
				t.Errorf("%s %s: holds MatchedFilterBank %v, SpectralBank %v; want only the spectral bank: %v",
					tc.name, label, d.fbank != nil, d.sbank != nil, tc.spectral)
			}
		}
		det, err := NewDetector(bank, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		check("detector", det)
		eng, err := NewBatchDetector(bank, tc.cfg, 2)
		if err != nil {
			t.Fatal(err)
		}
		if p := eng.proto; p.fbank != nil || p.sbank != nil || p.upsample != nil || p.up != nil || p.workers != nil {
			t.Errorf("%s: the batch prototype holds search state", tc.name)
		}
		eng.DetectBatch(inputs)
		workers := 0
		eng.eachWorkerDetector(func(d *Detector) {
			workers++
			check("batch worker", d)
		})
		if workers != 2 {
			t.Errorf("%s: %d batch worker detectors, want 2", tc.name, workers)
		}
		eng.Close()
	}
}

func TestDetectBatchDegenerateInputs(t *testing.T) {
	const noise = 1e-4
	bank := newTestBank(t, 8)
	cfg := DetectorConfig{}
	eng, err := NewBatchDetector(bank, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	if res := eng.DetectBatch(nil); len(res) != 0 {
		t.Fatalf("empty batch returned %d results", len(res))
	}

	ref, err := NewDetector(bank, cfg)
	if err != nil {
		t.Fatal(err)
	}
	one := batchStreamInputs(t, bank, dw1000.CIRLength, 1, noise)
	want, err := ref.Detect(one[0].Taps, one[0].NoiseRMS)
	if err != nil {
		t.Fatal(err)
	}
	res := eng.DetectBatch(one)
	if len(res) != 1 || res[0].Err != nil {
		t.Fatalf("batch of one: %+v", res)
	}
	requireSameResponses(t, "batch of one", res[0].Responses, want)

	// An all-zero CIR suppresses every candidate (maxOutsideSuppression
	// returns -1 through the fused scans): zero responses, no error.
	zero := []BatchInput{{Taps: make([]complex128, dw1000.CIRLength), NoiseRMS: noise}}
	res = eng.DetectBatch(zero)
	if res[0].Err != nil || len(res[0].Responses) != 0 {
		t.Fatalf("all-zero CIR: %+v", res[0])
	}

	// Mixed CIR lengths in one batch, including a window shorter than the
	// templates and an empty input; every runnable item must match its own
	// sequential Detect, unaffected by the failure next to it.
	long := batchStreamInputs(t, bank, dw1000.CIRLength, 2, noise)
	short := batchStreamInputs(t, bank, 512, 2, noise)
	tiny := make([]complex128, 4) // shorter than every up-sampled template
	tiny[1] = 0.01
	mixed := []BatchInput{
		long[0],
		{Taps: tiny, NoiseRMS: noise},
		short[0],
		{},      // empty CIR
		long[1], // same length as item 0: same group
		short[1],
	}
	res = eng.DetectBatch(mixed)
	if res[3].Err == nil || !strings.Contains(res[3].Err.Error(), "empty CIR") {
		t.Fatalf("empty CIR error = %v", res[3].Err)
	}
	for _, i := range []int{0, 1, 2, 4, 5} {
		if res[i].Err != nil {
			t.Fatalf("item %d: %v", i, res[i].Err)
		}
		want, err := ref.Detect(mixed[i].Taps, mixed[i].NoiseRMS)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResponses(t, "mixed lengths", res[i].Responses, want)
	}

	// A mid-batch item error (zero noise RMS under thresholded detection)
	// fails only that item.
	bad := []BatchInput{long[0], {Taps: long[1].Taps, NoiseRMS: 0}, long[1]}
	res = eng.DetectBatch(bad)
	if res[1].Err == nil || len(res[1].Responses) != 0 {
		t.Fatalf("mid-batch error: %+v", res[1])
	}
	for _, i := range []int{0, 2} {
		if res[i].Err != nil {
			t.Fatalf("neighbor %d failed: %v", i, res[i].Err)
		}
		want, err := ref.Detect(bad[i].Taps, bad[i].NoiseRMS)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResponses(t, "mid-batch neighbors", res[i].Responses, want)
	}
}

func TestDetectBatchProgressTicksPerProcessedItem(t *testing.T) {
	const noise = 1e-4
	bank := newTestBank(t, 8)
	eng, err := NewBatchDetector(bank, DetectorConfig{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	// The callback runs concurrently from workers (the documented
	// contract), so the test tracks the high-water mark atomically.
	var maxDone atomic.Int64
	eng.SetProgress(func(done int) {
		for {
			cur := maxDone.Load()
			if int64(done) <= cur || maxDone.CompareAndSwap(cur, int64(done)) {
				return
			}
		}
	})
	inputs := batchStreamInputs(t, bank, dw1000.CIRLength, 5, noise)
	eng.DetectBatch(inputs)
	// The final Add lands after the last item, and DetectBatch has joined
	// every worker before returning.
	if got := maxDone.Load(); got != int64(len(inputs)) {
		t.Fatalf("progress reached %d, want %d", got, len(inputs))
	}
}

// TestDetectBatchZeroAllocSteadyState: once warm, a batch allocates
// nothing, on the per-round search (8 shapes) and on maintained outputs
// (3 shapes).
func TestDetectBatchZeroAllocSteadyState(t *testing.T) {
	const noise = 1e-4
	for _, shapes := range []int{8, 3} {
		bank := newTestBank(t, shapes)
		eng, err := NewBatchDetector(bank, DetectorConfig{}, 2)
		if err != nil {
			t.Fatal(err)
		}
		inputs := batchStreamInputs(t, bank, dw1000.CIRLength, 4, noise)
		eng.DetectBatch(inputs) // warm every arena, detector, and plan cache
		allocs := testing.AllocsPerRun(5, func() {
			eng.DetectBatch(inputs)
		})
		eng.Close()
		if allocs != 0 {
			t.Fatalf("%d shapes: steady-state DetectBatch allocates %.1f objects per call, want 0", shapes, allocs)
		}
	}
}

// TestDetectorsShareOutputKernels: the default path keeps its outputs on
// banks below minParallelTemplates only, with one search worker whatever
// Workers says, and a batch engine's workers share one set of output
// kernels, built once per CIR length, while each holds its own outputs.
func TestDetectorsShareOutputKernels(t *testing.T) {
	for _, c := range []struct {
		shapes int
		cfg    DetectorConfig
		tracks bool
	}{
		{3, DetectorConfig{}, true},
		{3, DetectorConfig{Workers: 4}, true},
		{7, DetectorConfig{}, true},
		{8, DetectorConfig{}, false},
		{3, DetectorConfig{Mode: ModeReference}, false},
	} {
		det, err := NewDetector(newTestBank(t, c.shapes), c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if (det.tracked != nil) != c.tracks || (det.kern != nil) != c.tracks {
			t.Errorf("%d shapes, %+v: outputs %v, kernels %v, want %v", c.shapes, c.cfg, det.tracked != nil, det.kern != nil, c.tracks)
		}
		if c.tracks && len(det.workers) != 1 {
			t.Errorf("%d shapes, %+v: %d search workers on maintained outputs, want 1", c.shapes, c.cfg, len(det.workers))
		}
	}
	bank := newTestBank(t, 3)
	eng, err := NewBatchDetector(bank, DetectorConfig{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	eng.DetectBatch(batchStreamInputs(t, bank, dw1000.CIRLength, 6, 1e-4))
	kern := eng.states[eng.lenState[dw1000.CIRLength]].bank.kern
	if kern == nil {
		t.Fatal("the batch's shared bank holds no output kernels")
	}
	outputs := map[*dsp.TrackedOutputs]bool{}
	eng.eachWorkerDetector(func(d *Detector) {
		if d.kern != kern {
			t.Error("a batch worker built its own output kernels")
		}
		outputs[d.tracked] = true
	})
	if len(outputs) != 3 || outputs[nil] {
		t.Errorf("batch workers hold %d distinct output sets, want 3", len(outputs))
	}
}

func BenchmarkDetectBatch(b *testing.B) {
	const noise = 1e-4
	bank, err := pulse.DefaultBank(ts, 8)
	if err != nil {
		b.Fatal(err)
	}
	inputs := make([]BatchInput, 8)
	for i := range inputs {
		taps := make([]complex128, dw1000.CIRLength)
		bank.Shape(i%bank.Len()).RenderInto(taps, complex(0.02, 0.008), 150+40*float64(i), ts)
		inputs[i] = BatchInput{Taps: taps, NoiseRMS: noise}
	}
	eng, err := NewBatchDetector(bank, DetectorConfig{MaxResponses: 1}, 0)
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	eng.DetectBatch(inputs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.DetectBatch(inputs)
	}
	b.StopTimer()
	cirs := float64(len(inputs)) * float64(b.N)
	b.ReportMetric(cirs/b.Elapsed().Seconds(), "CIRs/s")
}
