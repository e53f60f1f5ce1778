package experiments

import (
	"fmt"
	"math"
	"math/rand/v2"

	"github.com/uwb-sim/concurrent-ranging/internal/core"
	"github.com/uwb-sim/concurrent-ranging/internal/dw1000"
	"github.com/uwb-sim/concurrent-ranging/internal/pulse"
)

// FullBankResult compares the reference detector against the default
// (spectral) path on the largest supported template bank — all
// pulse.NumShapes (108) DW1000 test-register shapes, the regime Sect. VII
// targets where every responder needs a distinguishable pulse shape. Both
// paths process identical CIRs through the batch engine; the result
// records wall time per path and whether they agree on the decoded
// responses. A second phase measures campaign throughput on a
// single-responder identification stream (the Sect. V workload) through
// three execution disciplines: a call-at-a-time loop that builds a
// detector per call (the unshared cost profile of serving detections with
// no shared state), a warm loop reusing one detector, and the batch
// engine. The batch results are verified bit-identical to the warm loop's
// before any number is reported.
type FullBankResult struct {
	// Trials is the number of CIRs processed per path.
	Trials int
	// Templates is the bank size (pulse.NumShapes).
	Templates int
	// Workers is the batch engine's worker-pool size (GOMAXPROCS at run
	// time).
	Workers int
	// ReferenceSeconds and SpectralSeconds are the total DetectBatch wall
	// times per path.
	ReferenceSeconds, SpectralSeconds float64
	// Speedup is ReferenceSeconds / SpectralSeconds.
	Speedup float64
	// Agree counts trials where both paths returned equivalent
	// detections: same response count, delays within half a sample and
	// magnitudes within 2%. Template identity is tallied separately
	// because adjacent DW1000 test-register shapes are near-identical
	// pulses, so a near-tie between neighboring templates could split on
	// the two paths' last-bit rounding differences.
	Agree int
	// TemplateMatches counts responses (out of Responses) where both
	// paths also picked the same template index.
	TemplateMatches, Responses int
	// MaxDelayDiff is the largest per-response delay difference between
	// the paths across agreeing responses, seconds.
	MaxDelayDiff float64
	// IDCIRs is the identification-stream length (single-responder CIRs)
	// each throughput discipline processes.
	IDCIRs int
	// CallPerSec, WarmPerSec, and BatchPerSec are identification-stream
	// throughputs in CIRs/second: the call-at-a-time loop pays
	// NewDetector (plans + 108 template spectra) on every call, the warm
	// loop reuses one detector, and the batch engine shares per-length
	// setup across its worker pool. They are printed in the table only;
	// perfbench's fullbank workload is the repository's throughput
	// measurement.
	CallPerSec, WarmPerSec, BatchPerSec float64
	// BatchSpeedup is BatchPerSec / CallPerSec.
	BatchSpeedup float64
}

// fullBankTrain renders overlapping responses with distinct shapes plus
// receiver noise into a CIR, returning the taps and the noise RMS.
func fullBankTrain(bank *pulse.Bank, seed uint64, responders int) ([]complex128, float64) {
	const noise = 1.4e-5
	r := rand.New(rand.NewPCG(seed, 73))
	taps := make([]complex128, dw1000.CIRLength)
	base := 80 + r.Float64()*800
	for i := 0; i < responders; i++ {
		mag := noise * (30 + r.Float64()*300)
		ph := r.Float64() * 2 * math.Pi
		// Equal-distance responders: arrivals spread only over the ~8 ns
		// delayed-TX quantization step (Sect. III).
		jitter := (r.Float64() - 0.5) * 8
		bank.Shape(r.IntN(bank.Len())).RenderInto(taps,
			complex(mag*math.Cos(ph), mag*math.Sin(ph)), base+jitter, dw1000.SampleInterval)
	}
	sigma := noise / math.Sqrt2
	for i := range taps {
		taps[i] += complex(r.NormFloat64()*sigma, r.NormFloat64()*sigma)
	}
	return taps, noise
}

// fullBankBatch runs one timed DetectBatch and surfaces per-item errors.
func fullBankBatch(eng *core.BatchDetector, label string, inputs []core.BatchInput) ([]core.BatchResult, float64, error) {
	t0 := wallNow()
	res := eng.DetectBatch(inputs)
	secs := wallSince(t0).Seconds()
	for i := range res {
		if res[i].Err != nil {
			return nil, 0, fmt.Errorf("trial %d (%s): %w", i, label, res[i].Err)
		}
	}
	return res, secs, nil
}

// fullBankResponders is the number of overlapping responses rendered
// into each comparison CIR.
const fullBankResponders = 3

// FullBank runs the comparison with trials CIRs per detector path (0
// selects 40).
func FullBank(env *Env, trials int, seed uint64) (*FullBankResult, error) {
	if trials == 0 {
		trials = 40
	}
	bank, err := pulse.DefaultBank(dw1000.SampleInterval, pulse.NumShapes)
	if err != nil {
		return nil, err
	}
	// Identification-stream sizing: twice the comparison trials for a
	// stable rate, and a small sample of the (much slower) call-at-a-time
	// loop — its per-call cost has no per-item variance worth averaging.
	idCIRs := 2 * trials
	callCIRs := min(idCIRs, max(3, trials/5))
	const warmup = 2

	dcfg := core.DetectorConfig{MaxResponses: fullBankResponders}
	dcfg.Mode = core.ModeReference
	refEng, err := core.NewBatchDetector(bank, dcfg, 0)
	if err != nil {
		return nil, err
	}
	defer refEng.Close()
	dcfg.Mode = core.ModeAuto
	fastEng, err := core.NewBatchDetector(bank, dcfg, 0)
	if err != nil {
		return nil, err
	}
	defer fastEng.Close()
	idCfg := core.DetectorConfig{MaxResponses: 1}
	idEng, err := core.NewBatchDetector(bank, idCfg, 0)
	if err != nil {
		return nil, err
	}
	defer idEng.Close()

	m := newMeter(env, 2*trials+callCIRs+2*idCIRs+warmup)
	defer m.finish()
	env.instrumentBatch(refEng, m)
	env.instrumentBatch(fastEng, m)
	env.instrumentBatch(idEng, m)

	res := &FullBankResult{
		Trials:    trials,
		Templates: bank.Len(),
		Workers:   idEng.Workers(),
		IDCIRs:    idCIRs,
	}

	// Phase 1: reference vs spectral on identical multi-responder CIRs.
	inputs := make([]core.BatchInput, trials)
	for trial := range inputs {
		inputs[trial].Taps, inputs[trial].NoiseRMS =
			fullBankTrain(bank, seed+uint64(trial)*9241, fullBankResponders)
	}
	refRes, refSecs, err := fullBankBatch(refEng, "reference", inputs)
	if err != nil {
		return nil, err
	}
	fastRes, fastSecs, err := fullBankBatch(fastEng, "spectral", inputs)
	if err != nil {
		return nil, err
	}
	res.ReferenceSeconds, res.SpectralSeconds = refSecs, fastSecs
	for trial := range inputs {
		want, got := refRes[trial].Responses, fastRes[trial].Responses
		agree := len(got) == len(want)
		for i := 0; agree && i < len(want); i++ {
			d := math.Abs(got[i].Delay - want[i].Delay)
			gm := math.Hypot(real(got[i].Amplitude), imag(got[i].Amplitude))
			wm := math.Hypot(real(want[i].Amplitude), imag(want[i].Amplitude))
			agree = d <= dw1000.SampleInterval/2 && math.Abs(gm-wm) <= 0.02*wm
			if agree {
				res.Responses++
				res.MaxDelayDiff = math.Max(res.MaxDelayDiff, d)
				if got[i].TemplateIndex == want[i].TemplateIndex {
					res.TemplateMatches++
				}
			}
		}
		if agree {
			res.Agree++
		}
	}
	if res.SpectralSeconds > 0 {
		res.Speedup = res.ReferenceSeconds / res.SpectralSeconds
	}

	// Phase 2: identification-stream throughput. Single-responder CIRs,
	// MaxResponses 1 — the Sect. V workload of identifying which responder
	// answered, where a deployment processes CIRs by the thousand.
	idInputs := make([]core.BatchInput, idCIRs)
	for i := range idInputs {
		idInputs[i].Taps, idInputs[i].NoiseRMS =
			fullBankTrain(bank, seed+500009+uint64(i)*9241, 1)
	}

	// Discipline A: call-at-a-time — a fresh detector per CIR, the cost
	// profile of serving detections with no shared state.
	callStart := wallNow()
	for i := 0; i < callCIRs; i++ {
		err := m.timeTrial(func() error {
			det, err := core.NewDetector(bank, idCfg)
			if err != nil {
				return err
			}
			env.instrumentDetector(det)
			_, err = det.Detect(idInputs[i].Taps, idInputs[i].NoiseRMS)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("call-at-a-time CIR %d: %w", i, err)
		}
	}
	callSecs := wallSince(callStart).Seconds()

	// Discipline B: warm loop — one detector reused across the stream.
	// Its results double as the ground truth for the batch path.
	warmDet, err := core.NewDetector(bank, idCfg)
	if err != nil {
		return nil, err
	}
	env.instrumentDetector(warmDet)
	warmResults := make([][]core.Response, idCIRs)
	warmStart := wallNow()
	for i := range idInputs {
		err := m.timeTrial(func() error {
			out, derr := warmDet.Detect(idInputs[i].Taps, idInputs[i].NoiseRMS)
			warmResults[i] = out
			return derr
		})
		if err != nil {
			return nil, fmt.Errorf("warm-loop CIR %d: %w", i, err)
		}
	}
	warmSecs := wallSince(warmStart).Seconds()

	// Discipline C: the batch engine, after an untimed warmup batch that
	// builds its per-worker detectors.
	if _, _, err := fullBankBatch(idEng, "batch warmup", idInputs[:warmup]); err != nil {
		return nil, err
	}
	batchRes, batchSecs, err := fullBankBatch(idEng, "batch", idInputs)
	if err != nil {
		return nil, err
	}
	// The acceptance contract: batch results are bit-identical to the
	// sequential per-CIR loop, verified on every recorded run.
	for i := range idInputs {
		got, want := batchRes[i].Responses, warmResults[i]
		if len(got) != len(want) {
			return nil, fmt.Errorf("batch CIR %d: %d responses, warm loop found %d", i, len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				return nil, fmt.Errorf("batch CIR %d response %d: %+v differs from warm loop's %+v",
					i, k, got[k], want[k])
			}
		}
	}
	if callSecs > 0 {
		res.CallPerSec = float64(callCIRs) / callSecs
	}
	if warmSecs > 0 {
		res.WarmPerSec = float64(idCIRs) / warmSecs
	}
	if batchSecs > 0 {
		res.BatchPerSec = float64(idCIRs) / batchSecs
	}
	if res.CallPerSec > 0 {
		res.BatchSpeedup = res.BatchPerSec / res.CallPerSec
	}
	return res, nil
}

// Render formats the comparison.
func (r *FullBankResult) Render() string {
	t := &Table{
		Title: fmt.Sprintf("Full %d-shape bank — reference vs. spectral detector (%d trials, %d workers)",
			r.Templates, r.Trials, r.Workers),
		Header: []string{"path", "total Detect time", "per CIR"},
		Rows: [][]string{
			{"reference (per-round transforms)", fmt.Sprintf("%.3f s", r.ReferenceSeconds),
				fmt.Sprintf("%.1f ms", 1e3*r.ReferenceSeconds/float64(r.Trials))},
			{"spectral (exact up-sampled residual)", fmt.Sprintf("%.3f s", r.SpectralSeconds),
				fmt.Sprintf("%.1f ms", 1e3*r.SpectralSeconds/float64(r.Trials))},
		},
	}
	id := &Table{
		Title:  fmt.Sprintf("Identification-stream throughput (%d single-responder CIRs, MaxResponses 1)", r.IDCIRs),
		Header: []string{"discipline", "CIRs/s"},
		Rows: [][]string{
			{"call-at-a-time (detector built per call)", fmt.Sprintf("%.1f", r.CallPerSec)},
			{"warm loop (one detector reused)", fmt.Sprintf("%.1f", r.WarmPerSec)},
			{fmt.Sprintf("batch engine (%d workers, shared plans)", r.Workers), fmt.Sprintf("%.1f", r.BatchPerSec)},
		},
	}
	return t.String() + fmt.Sprintf(
		"speedup %.2f×; %d/%d trials equivalent (max delay diff %.3g ps); same template on %d/%d responses\n",
		r.Speedup, r.Agree, r.Trials, r.MaxDelayDiff*1e12, r.TemplateMatches, r.Responses) +
		id.String() + fmt.Sprintf("batch engine speedup over call-at-a-time: %.2f× (batch results bit-identical to the sequential loop)\n",
		r.BatchSpeedup)
}
