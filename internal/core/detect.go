// Package core implements the paper's contribution: the search-and-
// subtract response detector operating on the channel impulse response
// (Sect. IV), the threshold-based baseline it is compared against
// (Sect. VI, Falsi et al.), pulse-shape identification of responders
// (Sect. V), response position modulation (Sect. VII), the combined
// RPM × pulse-shaping scheme (Sect. VIII), and the SS-TWR / concurrent
// distance equations (Eq. 2 and Eq. 4).
package core

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"runtime"
	"strconv"
	"sync"

	"github.com/uwb-sim/concurrent-ranging/internal/dsp"
	"github.com/uwb-sim/concurrent-ranging/internal/dw1000"
	"github.com/uwb-sim/concurrent-ranging/internal/obs"
	"github.com/uwb-sim/concurrent-ranging/internal/obs/trace"
	"github.com/uwb-sim/concurrent-ranging/internal/pulse"
)

// Metric names the detector records through its Recorder. Histograms are
// per-Detect distributions; counters accumulate across calls.
const (
	// MetricDetectCalls counts Detect invocations.
	MetricDetectCalls = "detector.detect_calls"
	// MetricDetectCallsByBank is the labeled companion of
	// MetricDetectCalls: calls counted per template-bank size
	// ({templates="N"}), so a mixed campaign (anonymous vs pulse-shaped
	// detectors) breaks its detector load down by bank. Recorded only
	// when the Recorder supports labeled series (obs.VecSource).
	MetricDetectCallsByBank = "detector.bank_detect_calls"
	// MetricDetectIterations is the per-call extraction-round count.
	MetricDetectIterations = "detector.iterations"
	// MetricDetectResponses is the per-call detected-response count.
	MetricDetectResponses = "detector.responses"
	// MetricDetectRefineSteps is the per-call total of golden-section
	// refinement steps across all extracted responses.
	MetricDetectRefineSteps = "detector.refine_steps"
	// MetricDetectMarginDB is the per-response peak-to-threshold margin
	// 20·log10(|α̂|/threshold); recorded only in thresholded mode.
	MetricDetectMarginDB = "detector.margin_db"
	// MetricDetectResidualFrac is the per-call residual-to-input energy
	// ratio after the last subtraction.
	MetricDetectResidualFrac = "detector.residual_energy_frac"
	// MetricDetectTemplateEvals counts template-bank evaluations (one
	// matched filtering of one template against one residual).
	MetricDetectTemplateEvals = "detector.template_evals"
	// MetricUpsampleExecs and the bank metrics surface the dsp plan-level
	// execution counters. On the default path the CIR is up-sampled once
	// per Detect. On banks that keep their outputs (dsp.TrackedOutputs,
	// fewer than eight templates) a bank "transform" is one
	// SpectralBank.Ingest, once per Detect, and a "filter" one template's
	// peak scan of its outputs, rounds × templates in all. Every other
	// default-path bank searches in frames (dsp.FrameBank): a transform is
	// one frame's Ingest and a filter one template filtered on one frame,
	// every group's representative on each visited frame plus the members
	// whose family bound reaches the best, so filters over rounds ×
	// templates × frames is the share of the (template, frame) pairs the
	// bounds let a search filter. On ModeReference the upsample and the
	// MatchedFilterBank.Transform both run once per round and a filter is
	// one FilterInto/FilterPeak.
	MetricUpsampleExecs  = "dsp.upsample_execs"
	MetricBankTransforms = "dsp.bank_transforms"
	MetricBankFilters    = "dsp.bank_filters"
	// MetricBankShiftSubtracts names the count of analytic DFT-shift
	// spectrum updates (dsp.SpectralBank.ShiftSubtract). No detector path
	// performs them, so a detector never records it; the name stays for
	// the benchmark tooling that reads it alongside the other bank
	// counters.
	MetricBankShiftSubtracts = "dsp.bank_shift_subtracts"
)

// ErrNonFinite reports a NaN or infinite detector input: a CIR tap, the
// noise RMS of a thresholded detection, or the configured threshold
// factor; or a threshold that, relative to the CIR's largest tap, over- or
// underflows (detectAppend's scaling). NewDetector, Detect and DetectBatch
// wrap it; match it with errors.Is.
var ErrNonFinite = errors.New("core: non-finite detector input")

// DetectorMode selects the detector's search implementation.
type DetectorMode int

const (
	// ModeAuto (the default) up-samples the CIR once per Detect and
	// renders each subtracted pulse once at T_s. Banks of fewer than
	// eight templates filter the up-sampled CIR once
	// (dsp.SpectralBank: one forward FFT at the signal's circular length,
	// one inverse FFT per template) and keep every template's output
	// across extractions, adding each subtracted pulse's image through
	// the template's impulse response (dsp.TrackedOutputs); a round is
	// then a peak scan of the outputs, which takes the subtractions only
	// into the blocks of outputs that can still hold the best, bit for
	// bit as if every output took them. Larger banks, and small ones the
	// outputs cannot track, keep the up-sampled residual exact with
	// dsp.UpsamplePlan.AddSegment and filter it every round in short
	// overlap-save frames (dsp.FrameBank), visiting only the frames whose
	// energy bound can reach the round's best peak and, on each, filtering
	// a representative per group of neighbouring templates and only the
	// members whose bound from it can reach the best; the pruned search
	// returns what filtering every template on every frame returns, bit
	// for bit. Up to rounding either computes what ModeReference
	// computes, at every bank size and with or without refinement.
	ModeAuto DetectorMode = iota
	// ModeReference re-upsamples the residual and re-transforms it at the
	// linear convolution length every round — the direct implementation
	// of Sect. IV that the default path is tested against, and fullbank's
	// comparison baseline.
	ModeReference
)

// Response is one detected responder pulse in the CIR.
type Response struct {
	// Delay is the pulse peak position in seconds relative to CIR tap 0.
	Delay float64
	// Amplitude is the estimated complex amplitude α̂_k (matched-filter
	// output at the peak, Sect. IV step 4).
	Amplitude complex128
	// TemplateIndex identifies the pulse template with the strongest
	// response — the responder's pulse shape (Sect. V).
	TemplateIndex int
}

// Magnitude returns |α̂|.
func (r Response) Magnitude() float64 { return cmplx.Abs(r.Amplitude) }

// DetectorConfig tunes the search-and-subtract detector.
type DetectorConfig struct {
	// Upsample is the FFT up-sampling factor applied to the CIR before
	// matched filtering (Sect. IV step 1). Zero selects DefaultUpsample.
	Upsample int
	// MaxResponses bounds the number of detected responses (the paper's
	// N−1 strongest). Zero means automatic: keep extracting until the
	// residual falls below the detection threshold — the run-time mode
	// challenge I of the paper calls for.
	MaxResponses int
	// ThresholdFactor is the detection threshold as a multiple of the CIR
	// noise RMS; extraction stops when the strongest remaining matched-
	// filter peak drops below it. Zero selects DefaultThresholdFactor.
	// It is ignored (no early stop) when MaxResponses > 0 and
	// DisableThreshold is set.
	ThresholdFactor float64
	// DisableThreshold turns the noise-floor stop off entirely; only
	// MaxResponses limits extraction then.
	DisableThreshold bool
	// MaxIterations is a safety cap on extraction rounds. Zero selects
	// DefaultMaxIterations.
	MaxIterations int
	// DisableRefinement skips the sub-sample golden-section refinement
	// and estimates each response on the up-sampled grid only — the
	// literal steps 3–5 of the paper. Kept as an ablation: the residual
	// of a grid-limited subtraction re-triggers detection at high SNR.
	DisableRefinement bool
	// Mode selects the search implementation; see DetectorMode.
	Mode DetectorMode
	// Workers bounds the goroutines fanned across the template bank on
	// banks of at least eight templates (a full Sect. V bank), which
	// filter the residual every round: on each frame a round visits, over
	// the groups' representatives and then over the members the bound
	// lets through (ModeAuto), or over the templates (ModeReference).
	// Results are bit-identical at every count. 0 means automatic:
	// GOMAXPROCS workers. 1 forces serial. Smaller banks always search
	// serially by default: their rounds scan maintained outputs
	// (ModeAuto) or are few templates, and the detector is often already
	// running inside a per-trial worker pool.
	Workers int
}

// Detector defaults.
const (
	DefaultUpsample        = 4
	DefaultThresholdFactor = 6.0
	DefaultMaxIterations   = 64
)

// Detector runs the paper's search-and-subtract algorithm with a bank of
// matched-filter templates (one per candidate pulse shape).
//
// A Detector caches FFT plans, the conjugated matched-filter spectrum of
// every template, and scratch buffers across Detect calls, so it is NOT
// safe for concurrent use: give each goroutine its own Detector (see
// NewDetector's cost note). Detection results do not depend on the cached
// state — Detect is deterministic in its inputs.
type Detector struct {
	cfg       DetectorConfig
	bank      *pulse.Bank
	ts        float64 // CIR sample interval
	tsUp      float64 // up-sampled interval
	templates [][]complex128
	centers   []int
	norms     []float64 // per template: its shape's NormConstant(ts), computed once
	// gridScales holds, on a DisableRefinement detector, each template's
	// gridAmplitudeScale, computed once; nil otherwise.
	gridScales []float64

	// Cached frequency-domain execution state for one CIR length
	// (precomputed for dw1000.CIRLength, rebuilt if a caller detects on a
	// different window) plus scratch reused across iterations. tracked
	// holds every template's maintained output when the search keeps
	// them (tracksOutputs), else nil. allFrames makes every round of a
	// frame search visit every frame, as a traced round does: the
	// exhaustive search the tests hold the pruned one to.
	searchBank
	allFrames bool
	tracked   *dsp.TrackedOutputs
	upsample  *dsp.UpsamplePlan
	residual  []complex128       // the residual, scaled by 2^−scaleExp
	scaleExp  int                // this Detect's input scale exponent (scaleExponent)
	up        []complex128       // up-sampled residual (the up-sampled CIR on maintained outputs)
	seg       []complex128       // the round's subtracted pulse, rendered at T_s
	evalBuf   []float64          // projectAmplitude's pulse samples: the widest support at T_s
	skipQ     []dsp.SkipInterval // per-round suppressed intervals, q-space
	extracted []float64          // per-call already-subtracted peak positions, T_s samples
	workers   []detectWorker     // per-worker scratch for the template fan-out
	// On a frame search: per group, its representative's largest output
	// on the visited frame, and the members that frame filters.
	repPeaks []float64
	members  []int32

	// rec is the optional instrumentation sink (nil = disabled, the
	// default). bankCalls is the pre-resolved per-bank-size labeled
	// counter child (nil unless rec supports labeled series): the hot
	// path touches only the resolved handle, never a vec lookup. The
	// last* fields remember the upsample and search-bank counters at the
	// end of the previous recorded call so each Detect reports deltas.
	rec       obs.Recorder
	bankCalls *obs.Counter
	// flight and traceParent feed the decision-level flight recorder:
	// when either is live, Detect wraps itself in a trace span and emits
	// one EventDetectRound per extraction round. roundScores (backed by
	// scoreStorage) is non-nil only while a traced Detect runs; scanRange
	// fills each template's peak score into its own index, so the
	// concurrent workers never contend.
	flight       *trace.Tracer
	traceParent  *trace.Span
	roundScores  []float64
	scoreStorage []float64

	lastUpsampleExecs int64
	lastTransforms    int64
	lastFilters       int64
}

// searchBank is the template bank the search reads for CIRs of cirLen
// taps, exactly one of: the MatchedFilterBank on ModeReference; on the
// default path, the SpectralBank of a bank that keeps its outputs
// (tracksOutputs) or the FrameBank of any other. kern holds the output
// kernels beside the SpectralBank, built by the first install and shared
// by every clone.
type searchBank struct {
	cirLen int
	fbank  *dsp.MatchedFilterBank // ModeReference only
	sbank  *dsp.SpectralBank      // default path on banks that keep their outputs
	kern   *dsp.OutputKernels     // with sbank
	frames *dsp.FrameBank         // default path on every other bank
}

// clone returns a bank sharing s's read-only plans, template spectra and
// output kernels while owning fresh signal state (see the dsp banks'
// Clone).
func (s searchBank) clone() searchBank {
	switch {
	case s.sbank != nil:
		return searchBank{cirLen: s.cirLen, sbank: s.sbank.Clone(), kern: s.kern}
	case s.frames != nil:
		return searchBank{cirLen: s.cirLen, frames: s.frames.Clone()}
	}
	return searchBank{cirLen: s.cirLen, fbank: s.fbank.Clone()}
}

// counters returns the search's execution counters in the dsp.bank_*
// metrics' terms (see MetricBankTransforms).
func (d *Detector) counters() (transforms, filters int64) {
	switch {
	case d.fbank != nil:
		return d.fbank.Transforms(), d.fbank.Filters()
	case d.frames != nil:
		return d.frames.Ingests(), d.frames.Scans()
	}
	return d.sbank.Ingests(), d.tracked.Scans()
}

// detectWorker is one goroutine's worth of search scratch: the search
// bank's output buffer plus the per-template skip intervals shifted into
// output-index space, and the chunk's result in a fan-out.
type detectWorker struct {
	scratch []complex128
	skip    []dsp.SkipInterval
	best    candidate
	err     error
}

// candidate is one template's best peak, merged deterministically across
// workers and frames: higher squared magnitude wins, ties go to the lower
// template index and then to the lower output index — exactly what the
// serial ascending scan of every template's every output with a strict >
// produces, in whatever order the candidates arrive.
type candidate struct {
	sq  float64
	t   int
	idx int
	y3  [3]complex128
}

func (c candidate) better(o candidate) bool {
	switch {
	case c.sq != o.sq:
		return c.sq > o.sq
	case o.t < 0 || c.t < 0:
		return o.t < 0
	case c.t != o.t:
		return c.t < o.t
	}
	return c.idx < o.idx
}

// SetRecorder attaches an instrumentation sink; nil (the default)
// disables recording. Recording is purely observational — detection
// results are bit-identical with and without a recorder — and costs one
// nil check per Detect when disabled. Like the rest of the detector the
// recorder hookup is not synchronized: set it before sharing work out,
// and give each goroutine its own Detector as usual (one concurrent-safe
// Recorder may back many detectors).
func (d *Detector) SetRecorder(r obs.Recorder) {
	d.rec = r
	d.bankCalls = nil
	if vs, ok := r.(obs.VecSource); ok {
		// Resolve the labeled per-bank-size child once, here, so the per-call
		// recording path stays a plain nil-guarded pointer.
		d.bankCalls = vs.CounterVec(MetricDetectCallsByBank, "templates").
			With(strconv.Itoa(len(d.templates)))
	}
}

// SetFlightRecorder attaches the decision-level flight recorder; nil (the
// default) disables it. The same contract as SetRecorder applies: tracing
// is observational only — detection results are bit-identical with and
// without it — and costs one nil check per Detect when disabled.
func (d *Detector) SetFlightRecorder(tr *trace.Tracer) { d.flight = tr }

// SetTraceParent nests the next Detect calls' spans under the given span
// (typically a session.round span). A nil or non-recording parent makes
// Detect fall back to opening root spans on the flight recorder, if one is
// attached. Like SetRecorder this is not synchronized: set it before the
// call, from the same goroutine.
func (d *Detector) SetTraceParent(sp *trace.Span) { d.traceParent = sp }

// NewDetector builds a detector for CIRs sampled at the bank's interval.
func NewDetector(bank *pulse.Bank, cfg DetectorConfig) (*Detector, error) {
	d, err := newDetector(bank, cfg)
	if err != nil {
		return nil, err
	}
	// Precompute the plans and template spectra for the DW1000 accumulator
	// window, the CIR length every simulated reception produces. Detecting
	// on a different window transparently rebuilds this state (ensureState),
	// so NewDetector stays cheap to call in tests with short CIRs while the
	// campaign hot path never plans twice.
	if err := d.ensureState(dw1000.CIRLength); err != nil {
		return nil, err
	}
	return d, nil
}

// newDetector validates the configuration and renders the templates; the
// detector holds no search state until ensureState or install.
func newDetector(bank *pulse.Bank, cfg DetectorConfig) (*Detector, error) {
	if bank == nil {
		return nil, fmt.Errorf("core: nil template bank")
	}
	if cfg.Upsample == 0 {
		cfg.Upsample = DefaultUpsample
	}
	if cfg.Upsample < 1 {
		return nil, fmt.Errorf("core: upsample factor %d < 1", cfg.Upsample)
	}
	if math.IsNaN(cfg.ThresholdFactor) || math.IsInf(cfg.ThresholdFactor, 0) {
		return nil, fmt.Errorf("%w: threshold factor %g", ErrNonFinite, cfg.ThresholdFactor)
	}
	if cfg.ThresholdFactor == 0 {
		cfg.ThresholdFactor = DefaultThresholdFactor
	}
	if cfg.ThresholdFactor < 0 {
		return nil, fmt.Errorf("core: negative threshold factor %g", cfg.ThresholdFactor)
	}
	if cfg.MaxIterations == 0 {
		cfg.MaxIterations = DefaultMaxIterations
	}
	if cfg.MaxResponses < 0 {
		return nil, fmt.Errorf("core: negative MaxResponses %d", cfg.MaxResponses)
	}
	if cfg.MaxResponses == 0 && cfg.DisableThreshold {
		return nil, fmt.Errorf("core: automatic mode requires the detection threshold")
	}
	if cfg.Mode < ModeAuto || cfg.Mode > ModeReference {
		return nil, fmt.Errorf("core: unknown detector mode %d", cfg.Mode)
	}
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("core: negative Workers %d", cfg.Workers)
	}
	d := &Detector{
		cfg:       cfg,
		bank:      bank,
		ts:        bank.SampleInterval(),
		tsUp:      bank.SampleInterval() / float64(cfg.Upsample),
		templates: make([][]complex128, bank.Len()),
		centers:   make([]int, bank.Len()),
		norms:     make([]float64, bank.Len()),
	}
	if cfg.DisableRefinement {
		d.gridScales = make([]float64, bank.Len())
	}
	for i := 0; i < bank.Len(); i++ {
		shape := bank.Shape(i)
		tmpl := shape.Template(d.tsUp)
		d.templates[i] = tmpl
		d.centers[i] = (len(tmpl) - 1) / 2
		d.norms[i] = shape.NormConstant(d.ts)
		if d.gridScales != nil && d.norms[i] != 0 {
			d.gridScales[i] = shape.NormConstant(d.tsUp) / d.norms[i]
		}
	}
	return d, nil
}

// ensureState (re)builds the cached frequency-domain execution state for
// CIRs of n taps.
func (d *Detector) ensureState(n int) error {
	if n == d.cirLen {
		return nil
	}
	s, err := d.newSearchBank(n)
	if err != nil {
		return err
	}
	return d.install(s)
}

// newSearchBank builds the bank the detector's search path reads for CIRs
// of n taps, holding each template's spectrum for the up-sampled window:
// the MatchedFilterBank on ModeReference; on the default path the
// SpectralBank of a bank below minParallelTemplates that the output
// kernels admit (SpectralBank.Trackable), else the FrameBank.
// ensureState and the batch engine's stateFor both build through it.
func (d *Detector) newSearchBank(n int) (searchBank, error) {
	s := searchBank{cirLen: n}
	sigLen := n * d.cfg.Upsample
	var err error
	if d.cfg.Mode == ModeReference {
		s.fbank, err = dsp.NewMatchedFilterBank(d.templates, sigLen)
		return s, err
	}
	if len(d.templates) < minParallelTemplates {
		sbank, err := dsp.NewSpectralBank(d.templates, sigLen)
		if err != nil {
			return s, err
		}
		if sbank.Trackable() {
			s.sbank = sbank
			return s, nil
		}
	}
	s.frames, err = dsp.NewFrameBank(d.templates, sigLen)
	return s, err
}

// install makes s the detector's search bank and builds what Detect needs
// around it: the upsampling plan for s.cirLen, the residual and up-sampled
// buffers, the refinement's sweep buffer, the per-worker scratch and,
// when the search keeps its outputs, the output kernels (unless s shares
// them already) and the outputs. The kernels are built in the up-sampled
// buffer and the first worker's scratch. The counter baselines restart
// with the new bank.
func (d *Detector) install(s searchBank) error {
	up, err := dsp.NewUpsamplePlan(s.cirLen, d.cfg.Upsample)
	if err != nil {
		return err
	}
	upBuf := make([]complex128, s.cirLen*d.cfg.Upsample)
	tracks := d.tracksOutputs(s)
	nw := 1
	if !tracks {
		nw = d.workerCount()
	}
	workers := make([]detectWorker, nw)
	for i := range workers {
		switch {
		case s.sbank != nil:
			workers[i].scratch = s.sbank.NewScratch()
		case s.frames != nil:
			workers[i].scratch = s.frames.NewScratch()
		default:
			workers[i].scratch = s.fbank.NewScratch()
		}
	}
	var tracked *dsp.TrackedOutputs
	if tracks {
		if s.kern == nil {
			if s.kern, err = dsp.NewOutputKernels(s.sbank, up, upBuf, workers[0].scratch); err != nil {
				return err
			}
		}
		tracked = s.kern.NewOutputs()
	}
	// projectAmplitude sweeps at most ⌊p + w⌋ − ⌊p − w⌋ + 2 samples for
	// a half-width of w samples.
	support := 1
	for i := range d.templates {
		support = max(support, int(2*d.bank.Shape(i).SupportHalfWidth()/d.ts)+3)
	}
	d.repPeaks, d.members = nil, nil
	if s.frames != nil {
		d.repPeaks = make([]float64, len(s.frames.Representatives()))
		d.members = make([]int32, 0, len(d.templates))
	}
	d.searchBank, d.tracked, d.upsample = s, tracked, up
	d.up, d.workers = upBuf, workers
	d.residual = make([]complex128, s.cirLen)
	d.evalBuf = make([]float64, support)
	d.lastUpsampleExecs, d.lastTransforms, d.lastFilters = 0, 0, 0
	return nil
}

// tracksOutputs reports whether a search on s keeps every template's
// matched-filter output across extractions (dsp.TrackedOutputs): the
// default path on banks below minParallelTemplates whose templates the
// output kernels admit (newSearchBank). There one update per extraction
// costs less than re-filtering the residual every round; on larger banks
// it costs about what a template's inverse transform costs, and the
// outputs would hold megabytes.
func (d *Detector) tracksOutputs(s searchBank) bool { return s.sbank != nil }

// minParallelTemplates is the bank size from which the default path
// searches the residual in frames every round (dsp.FrameBank) and
// Workers == 0 fans each visited frame's filterings out across workers.
// Below it the default path keeps its outputs (tracksOutputs), and
// detectors usually already run inside per-trial worker pools
// (experiments.parallelMapWith) where nested fan-out only adds
// scheduling churn.
const minParallelTemplates = 8

// workerCount resolves DetectorConfig.Workers against the bank size.
func (d *Detector) workerCount() int {
	w := d.cfg.Workers
	if w == 0 {
		if len(d.templates) < minParallelTemplates {
			return 1
		}
		w = runtime.GOMAXPROCS(0)
	}
	return max(1, min(w, len(d.templates)))
}

// Detect runs search and subtract on the CIR taps (sampled at the bank's
// interval) and returns the detected responses sorted by ascending delay
// (Sect. IV step 7). noiseRMS is the per-tap complex noise RMS used for
// the detection threshold; it must be positive and finite unless the
// threshold is disabled. A NaN or infinite tap, or such a noiseRMS when
// thresholded, returns an error wrapping ErrNonFinite. The search runs on
// the taps scaled by the power of two that puts their largest component
// in [0.5, 1), so scaling the taps and noiseRMS by 2^k scales every
// amplitude by 2^k, bit for bit, at any scale; a threshold that over- or
// underflows under that scaling also returns ErrNonFinite.
//
// Each round matched-filters the residual with every template, picks the
// globally strongest peak (its template identifies the responder's pulse
// shape), records (α̂_k, τ_k), and subtracts α̂_k·s_i(t−τ_k) from the
// residual before searching again.
func (d *Detector) Detect(taps []complex128, noiseRMS float64) ([]Response, error) {
	out, err := d.detectAppend(nil, taps, noiseRMS)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// detectAppend is Detect appending its responses to dst (which may be a
// batch worker's arena; only dst[len(dst):cap] is written). On error the
// returned slice is dst rolled back to its original length, so a failed
// item never leaves partial responses behind. The appended window is
// sorted by delay independently of dst's existing contents.
func (d *Detector) detectAppend(dst []Response, taps []complex128, noiseRMS float64) ([]Response, error) {
	if len(taps) == 0 {
		return dst, fmt.Errorf("core: empty CIR")
	}
	useThreshold := !d.cfg.DisableThreshold
	if useThreshold {
		if math.IsNaN(noiseRMS) || math.IsInf(noiseRMS, 0) {
			return dst, fmt.Errorf("%w: noise RMS %g", ErrNonFinite, noiseRMS)
		}
		if noiseRMS <= 0 {
			return dst, fmt.Errorf("core: noise RMS %g must be positive for thresholded detection", noiseRMS)
		}
	}
	for i, c := range taps {
		if cmplx.IsNaN(c) || cmplx.IsInf(c) {
			return dst, fmt.Errorf("%w: tap %d is %v", ErrNonFinite, i, c)
		}
	}
	threshold := d.cfg.ThresholdFactor * noiseRMS
	if err := d.ensureState(len(taps)); err != nil {
		return dst, err
	}
	// The search runs on the taps scaled by 2^−e, e the binary exponent of
	// their largest component, which puts that component in [0.5, 1):
	// clear of overflow in the squared magnitudes and projection scores,
	// and of underflow, at any input scale. Every step is homogeneous in
	// the taps and a power-of-two scale is exact away from the subnormals,
	// so the responses are those of the unscaled search bit for bit,
	// their amplitudes scaled back by 2^e.
	residual := d.residual
	d.scaleExp = scaleExponent(taps)
	scaleInto(residual, taps, -d.scaleExp)
	searchThreshold := d.cfg.ThresholdFactor * math.Ldexp(noiseRMS, -d.scaleExp)
	if useThreshold && (searchThreshold == 0 || math.IsInf(searchThreshold, 0)) {
		return dst, fmt.Errorf("%w: threshold %g against taps up to 2^%d", ErrNonFinite, threshold, d.scaleExp)
	}

	// Instrumentation is observational only: the counters and trace
	// events below never influence the search, and the energy tallies
	// run only when a recorder or a live span is attached.
	span := d.beginDetectSpan(len(taps), noiseRMS, threshold, useThreshold)
	if span != nil {
		if cap(d.scoreStorage) < len(d.templates) {
			d.scoreStorage = make([]float64, len(d.templates))
		}
		d.roundScores = d.scoreStorage[:len(d.templates)]
	} else {
		d.roundScores = nil
	}
	var inputEnergy float64
	if d.rec != nil || span != nil {
		inputEnergy = dsp.Energy(residual)
	}
	rounds, refineSteps := 0, 0
	stop := trace.ReasonMaxIterations

	// The default path up-samples the CIR once. With maintained outputs
	// it filters the up-sampled CIR once, here, and updates the outputs
	// after each subtraction; otherwise it keeps the up-sampled residual
	// exact after each subtraction and searches it in frames every round
	// (AddSegment below). The reference path re-upsamples the residual
	// every round.
	spectral := d.fbank == nil
	if spectral {
		d.upsample.Execute(d.up, residual)
	}
	if d.tracked != nil {
		err := d.sbank.Ingest(d.up)
		if err == nil {
			err = d.tracked.Load(d.sbank, d.workers[0].scratch)
		}
		if err != nil {
			failDetectSpan(span, err)
			return dst, err
		}
	}

	responses, base := dst, len(dst)
	d.extracted = d.extracted[:0] // peak positions already subtracted, in T_s samples
	for iter := 0; iter < d.cfg.MaxIterations; iter++ {
		if d.cfg.MaxResponses > 0 && len(responses)-base >= d.cfg.MaxResponses {
			stop = trace.ReasonMaxResponses
			break
		}
		rounds++
		// Coarse search in the up-sampled domain (Sect. IV steps 1–3).
		// Maintained outputs are scanned as they stand, and the frame
		// search reads the up-sampled residual as it stands. The
		// reference path's one forward FFT of the re-upsampled residual
		// feeds every template's cached matched-filter spectrum; each
		// template then costs one complex multiply pass plus one inverse
		// FFT with the peak scan fused into its output pass.
		if !spectral {
			if err := d.fbank.Transform(d.upsample.Execute(d.up, residual)); err != nil {
				failDetectSpan(span, err)
				return responses[:base], err
			}
		}
		d.skipQ = appendSuppressedIntervals(d.skipQ[:0], d.extracted, d.cfg.Upsample)
		best, err := d.searchTemplates()
		if err != nil {
			failDetectSpan(span, err)
			return responses[:base], err
		}
		if best.t < 0 {
			stop = trace.ReasonNoCandidate
			if span != nil {
				d.emitRound(span, rounds-1, best, 0, 0, threshold, useThreshold, stop, inputEnergy)
			}
			break
		}
		// Refine the peak position to sub-sample precision and estimate
		// the complex amplitude by projecting the residual onto the
		// template at the refined position — in the original T_s domain,
		// where the sampled-pulse model is exact. Subtracting on the
		// up-sampled grid alone (the literal step 4/5 of the paper)
		// leaves a flank-shaped residual proportional to the delay error
		// plus the slight aliasing of a 900 MHz pulse at the 1.0016 ns
		// accumulator rate; a high-SNR run would re-detect that residual
		// as phantom responses.
		var peakPos float64
		var alpha complex128
		if d.cfg.DisableRefinement {
			// Literal Sect. IV steps 3–5: the peak stays on the
			// up-sampled grid and the amplitude is the matched-filter
			// output at that sample (rescaled to the T_s-domain template
			// energy convention).
			peakPos = float64(best.idx+d.centers[best.t]) / float64(d.cfg.Upsample)
			alpha = best.y3[1] * complex(d.gridAmplitudeScale(best.t), 0)
		} else {
			coarse := (float64(best.idx) + d.interpolateY3(best.y3, best.idx) +
				float64(d.centers[best.t])) / float64(d.cfg.Upsample)
			var steps int
			peakPos, alpha, steps = d.refinePeak(residual, best.t, coarse)
			refineSteps += steps
		}
		if alpha == 0 {
			stop = trace.ReasonZeroAmplitude
			if span != nil {
				d.emitRound(span, rounds-1, best, peakPos, alpha, threshold, useThreshold, stop, inputEnergy)
			}
			break
		}
		if useThreshold && cmplx.Abs(alpha) < searchThreshold {
			stop = trace.ReasonBelowThreshold
			if span != nil {
				d.emitRound(span, rounds-1, best, peakPos, alpha, threshold, useThreshold, stop, inputEnergy)
			}
			break
		}
		responses = append(responses, Response{
			Delay:         peakPos * d.ts,
			Amplitude:     scaleComplex(alpha, d.scaleExp),
			TemplateIndex: best.t,
		})
		// Subtract the estimated response (Sect. IV step 5): render it
		// once at T_s (exactly the samples RenderInto would add) into the
		// residual and, on the default path, its up-sampled image into
		// the maintained outputs or the up-sampled residual.
		var lo int
		d.seg, lo = d.bank.Shape(best.t).RenderSegment(d.seg, -alpha, peakPos, d.ts, d.norms[best.t], len(residual))
		for k, v := range d.seg {
			residual[lo+k] += v
		}
		switch {
		case d.tracked != nil:
			d.tracked.AddSegment(d.seg, lo)
		case spectral:
			d.upsample.AddSegment(d.up, d.seg, lo)
		}
		d.extracted = append(d.extracted, peakPos)
		if span != nil {
			d.emitRound(span, rounds-1, best, peakPos, alpha, threshold, useThreshold, trace.ReasonAccepted, inputEnergy)
		}
	}
	sortResponsesByDelay(responses[base:])
	if d.rec != nil {
		d.recordDetect(responses[base:], rounds, refineSteps, threshold, useThreshold, inputEnergy)
	}
	if span != nil {
		span.EndWith(trace.Attrs{
			trace.AttrReason: stop,
			"responses":      len(responses) - base,
			"rounds":         rounds,
			"refine_steps":   refineSteps,
		})
		d.roundScores = nil
	}
	return responses, nil
}

// beginDetectSpan opens this Detect call's span: under the installed
// trace parent when it is recording, else as a root span on the flight
// recorder. It returns nil — the "not tracing" sentinel the hot path
// checks — when neither is live or the root was sampled out.
func (d *Detector) beginDetectSpan(cirLen int, noiseRMS, threshold float64, useThreshold bool) *trace.Span {
	if d.traceParent == nil && d.flight == nil {
		return nil
	}
	// An installed but non-recording parent (sampled-out root) suppresses
	// this call's span instead of opening a fresh root span.
	if d.traceParent != nil && !d.traceParent.Recording() {
		return nil
	}
	attrs := trace.Attrs{
		"templates": len(d.templates),
		"cir_len":   cirLen,
		"noise_rms": noiseRMS,
		"spectral":  d.fbank == nil,
	}
	if useThreshold {
		attrs["threshold"] = threshold
	}
	var sp *trace.Span
	if d.traceParent != nil {
		sp = d.traceParent.Begin(trace.SpanDetect, attrs)
	} else if d.flight != nil {
		sp = d.flight.Begin(trace.SpanDetect, attrs)
	}
	if !sp.Recording() {
		return nil
	}
	return sp
}

// failDetectSpan closes a detect span on an error return.
func failDetectSpan(span *trace.Span, err error) {
	if span != nil {
		span.EndWith(trace.Attrs{trace.AttrStatus: "error", trace.AttrError: err.Error()})
	}
}

// emitRound records one search-and-subtract round on the detect span: the
// candidate peak, the per-template matched-filter scores scanRange
// captured, the peak-to-threshold margin, the accept/reject reason, and
// the residual-to-input energy fraction at the end of the round (after
// the subtraction for accepted rounds). Scores and amplitude are scaled
// back to the input's scale. Only reached while tracing.
func (d *Detector) emitRound(span *trace.Span, round int, best candidate,
	peakPos float64, alpha complex128, threshold float64, useThreshold bool,
	reason string, inputEnergy float64) {
	if span == nil {
		return
	}
	scores := make([]float64, len(d.roundScores))
	for i, v := range d.roundScores {
		scores[i] = math.Ldexp(v, d.scaleExp)
	}
	attrs := trace.Attrs{
		trace.AttrRound:  round,
		trace.AttrReason: reason,
		trace.AttrScores: scores,
	}
	if best.t >= 0 {
		attrs[trace.AttrTemplate] = best.t
		attrs[trace.AttrPeakIndex] = best.idx
		attrs[trace.AttrDelayS] = peakPos * d.ts
		amp := math.Ldexp(cmplx.Abs(alpha), d.scaleExp)
		attrs[trace.AttrAmplitude] = amp
		if useThreshold && threshold > 0 && amp > 0 {
			attrs[trace.AttrMarginDB] = 20 * math.Log10(amp/threshold)
		}
	}
	if inputEnergy > 0 {
		attrs[trace.AttrResidualFrac] = dsp.Energy(d.residual) / inputEnergy
	}
	span.Event(trace.EventDetectRound, attrs)
}

// recordDetect emits one Detect call's worth of diagnostics. Only reached
// with a non-nil recorder; the guard also keeps the nilinstr contract
// locally checkable.
func (d *Detector) recordDetect(responses []Response, rounds, refineSteps int,
	threshold float64, useThreshold bool, inputEnergy float64) {
	rec := d.rec
	if rec == nil {
		return
	}
	rec.Count(MetricDetectCalls, 1)
	if d.bankCalls != nil {
		d.bankCalls.Inc()
	}
	rec.Observe(MetricDetectIterations, float64(rounds))
	rec.Observe(MetricDetectResponses, float64(len(responses)))
	rec.Observe(MetricDetectRefineSteps, float64(refineSteps))
	rec.Count(MetricDetectTemplateEvals, int64(rounds*len(d.templates)))
	if useThreshold && threshold > 0 {
		for _, r := range responses {
			rec.Observe(MetricDetectMarginDB, 20*math.Log10(r.Magnitude()/threshold))
		}
	}
	if inputEnergy > 0 {
		rec.Observe(MetricDetectResidualFrac, dsp.Energy(d.residual)/inputEnergy)
	}
	d.recordPlanExecs()
}

// recordPlanExecs surfaces the dsp plan execution counters as deltas since
// the last recorded call (install resets the baselines with a new bank).
// Detect and MatchedFilterOutputs both record them as they finish, so a
// detector's totals never wait on a later call.
func (d *Detector) recordPlanExecs() {
	rec := d.rec
	if rec == nil {
		return
	}
	if e := d.upsample.Execs(); e != d.lastUpsampleExecs {
		rec.Count(MetricUpsampleExecs, e-d.lastUpsampleExecs)
		d.lastUpsampleExecs = e
	}
	transforms, filters := d.counters()
	if transforms != d.lastTransforms {
		rec.Count(MetricBankTransforms, transforms-d.lastTransforms)
		d.lastTransforms = transforms
	}
	if filters != d.lastFilters {
		rec.Count(MetricBankFilters, filters-d.lastFilters)
		d.lastFilters = filters
	}
}

// searchTemplates runs one round's coarse search — every template's
// matched filtering (or its maintained output) plus suppressed-peak scan —
// and returns the winning candidate (t == -1 when every sample of every
// template is suppressed or zero). A traced round records each
// template's best score.
func (d *Detector) searchTemplates() (candidate, error) {
	clear(d.roundScores)
	if d.frames != nil {
		return d.searchFrames()
	}
	return d.scanTemplates(nil, nil)
}

// searchFrames is searchTemplates on the frame bank. It bounds every
// frame of the up-sampled residual and visits the frames in descending
// order of their bounds until the next frame's bound cannot reach the
// best candidate so far. On each visited frame it filters every group's
// representative, then the members whose family bound reaches the best
// after that (dsp.FrameBank.Members). A traced round, or an allFrames
// detector, filters every template on every frame. The candidates merge
// under candidate.better, whose order does not depend on the order they
// arrive in, and a skipped frame or member holds no output that reaches
// the best, so the result is the exhaustive search's, bit for bit. The
// winner's neighbours that another frame owns come from that frame.
func (d *Detector) searchFrames() (candidate, error) {
	fb := d.frames
	best := candidate{t: -1}
	if err := fb.Load(d.up); err != nil {
		return best, err
	}
	all := d.allFrames || d.roundScores != nil
	for _, f := range fb.Order() {
		if !all && !fb.Reaches(int(f), best.sq) {
			break
		}
		if err := fb.Ingest(int(f)); err != nil {
			return candidate{t: -1}, err
		}
		var err error
		if all {
			best, err = d.scanMerge(best, nil, nil)
		} else if best, err = d.scanMerge(best, fb.Representatives(), d.repPeaks); err == nil {
			d.members = fb.Members(d.members[:0], d.repPeaks, best.sq)
			best, err = d.scanMerge(best, d.members, nil)
		}
		if err != nil {
			return candidate{t: -1}, err
		}
	}
	if best.t >= 0 {
		if err := fb.EdgeNeighbours(d.workers[0].scratch, best.t, best.idx, &best.y3); err != nil {
			return candidate{t: -1}, err
		}
	}
	return best, nil
}

// scanMerge scans the templates ts (every template when nil) on the
// ingested frame and returns the better of best and their best candidate,
// recording the k-th template's largest unwrapped output in peaks[k]
// when peaks is not nil (dsp.FrameBank.ScanFrame).
func (d *Detector) scanMerge(best candidate, ts []int32, peaks []float64) (candidate, error) {
	c, err := d.scanTemplates(ts, peaks)
	if err == nil && c.better(best) {
		best = c
	}
	return best, err
}

// scanTemplates scans the templates ts, every template when ts is nil,
// against what the search bank holds — its maintained output, the frame
// it ingested or the transformed residual — and returns the best
// candidate. A frame scan with peaks records the k-th template's largest
// unwrapped output in peaks[k]. With more than one worker the list is
// split into contiguous chunks, each scanned by its own goroutine with
// per-worker scratch; the in-order reduce keeps the result identical to
// the serial ascending scan regardless of scheduling.
func (d *Detector) scanTemplates(ts []int32, peaks []float64) (candidate, error) {
	n := len(d.templates)
	if ts != nil {
		n = len(ts)
	}
	nw := min(len(d.workers), n)
	if nw <= 1 {
		return d.scanRange(&d.workers[0], ts, peaks, 0, n)
	}
	var wg sync.WaitGroup
	chunk := (n + nw - 1) / nw
	for w := range d.workers[:nw] {
		lo := w * chunk
		hi := min(lo+chunk, n)
		if lo >= hi {
			d.workers[w].best, d.workers[w].err = candidate{t: -1}, nil
			continue
		}
		wg.Add(1)
		go func(w *detectWorker, lo, hi int) {
			defer wg.Done()
			w.best, w.err = d.scanRange(w, ts, peaks, lo, hi)
		}(&d.workers[w], lo, hi)
	}
	wg.Wait()
	best := candidate{t: -1}
	for _, w := range d.workers[:nw] {
		if w.err != nil {
			return candidate{t: -1}, w.err
		}
		if w.best.better(best) {
			best = w.best
		}
	}
	return best, nil
}

// scanRange scans the templates ts[lo:hi] (templates [lo, hi) when ts is
// nil) and returns the chunk's best candidate. On the per-round paths it
// only reads detector state shared across workers (skipQ, centers, the
// banks' read-only plan state) and mutates nothing but the worker's own
// scratch, the chunk's peaks and the chunk's round scores; maintained
// outputs are scanned by one worker only.
func (d *Detector) scanRange(w *detectWorker, ts []int32, peaks []float64, lo, hi int) (candidate, error) {
	n := d.cirLen * d.cfg.Upsample
	best := candidate{t: -1}
	for k := lo; k < hi; k++ {
		t := k
		if ts != nil {
			t = int(ts[k])
		}
		w.skip = appendShifted(w.skip[:0], d.skipQ, d.centers[t], n)
		var (
			idx int
			sq  float64
			y3  [3]complex128
			err error
		)
		switch {
		case d.tracked != nil:
			idx, sq, y3, err = d.tracked.ScanBest(t, w.skip)
		case d.frames != nil:
			var peak *float64
			if peaks != nil {
				peak = &peaks[k]
			}
			idx, sq, y3, err = d.frames.ScanFrame(w.scratch, t, w.skip, peak)
		default:
			idx, sq, y3, err = d.fbank.FilterPeak(w.scratch, t, w.skip)
		}
		if err != nil {
			return best, err
		}
		if idx < 0 {
			continue
		}
		if d.roundScores != nil {
			// Each worker owns its chunk's indices, so concurrent scans
			// never write the same slot. A frame search keeps the
			// largest over the frames.
			d.roundScores[t] = max(d.roundScores[t], math.Sqrt(sq))
		}
		if c := (candidate{sq: sq, t: t, idx: idx, y3: y3}); c.better(best) {
			best = c
		}
	}
	return best, nil
}

// suppressionRadius is how close (in CIR samples T_s) a new candidate
// peak may sit to an already-extracted one. Sub-sample delay estimation
// error leaves a small subtraction residual exactly at the extracted
// position; without this guard a high-SNR run re-detects it as a phantom
// responder. Half a CIR sample is far tighter than any resolvable
// response separation, so genuine overlapping responses are unaffected.
const suppressionRadius = 0.5

// appendSuppressedIntervals appends the suppressed index ranges implied
// by the extracted positions, merged into ascending disjoint intervals —
// O(k log k) once per round instead of re-checking every extracted
// position for every sample of every template. Intervals live in q-space,
// q = output index + template center, which is template-independent;
// appendShifted rebases them per template. Membership is decided by
// probing the exact floating-point predicate the per-sample scan used —
// |q/U − p| < suppressionRadius — so interval-based scans are
// bit-identical to it (TestSuppressedIntervalsMatchNaive).
func appendSuppressedIntervals(dst []dsp.SkipInterval, extracted []float64, upsample int) []dsp.SkipInterval {
	U := float64(upsample)
	for _, p := range extracted {
		// Approximate endpoints with two samples of slack, then tighten
		// with the exact predicate (the region is contiguous: q/U is
		// monotone in q, so |q/U − p| is unimodal).
		lo := int(math.Ceil((p-suppressionRadius)*U)) - 2
		hi := int(math.Floor((p+suppressionRadius)*U)) + 2
		for lo <= hi && math.Abs(float64(lo)/U-p) >= suppressionRadius {
			lo++
		}
		for hi >= lo && math.Abs(float64(hi)/U-p) >= suppressionRadius {
			hi--
		}
		if lo > hi {
			continue
		}
		dst = append(dst, dsp.SkipInterval{Lo: lo, Hi: hi})
	}
	for i := 1; i < len(dst); i++ {
		for j := i; j > 0 && dst[j].Lo < dst[j-1].Lo; j-- {
			dst[j], dst[j-1] = dst[j-1], dst[j]
		}
	}
	out := dst[:0]
	for _, iv := range dst {
		if n := len(out); n > 0 && iv.Lo <= out[n-1].Hi+1 {
			out[n-1].Hi = max(out[n-1].Hi, iv.Hi)
			continue
		}
		out = append(out, iv)
	}
	return out
}

// appendShifted rebases q-space skip intervals into output-index space
// for a template with the given center, clamped to outputs [0, n).
func appendShifted(dst, skipQ []dsp.SkipInterval, center, n int) []dsp.SkipInterval {
	for _, iv := range skipQ {
		lo, hi := iv.Lo-center, iv.Hi-center
		if hi < 0 || lo >= n {
			continue
		}
		dst = append(dst, dsp.SkipInterval{Lo: max(lo, 0), Hi: min(hi, n-1)})
	}
	return dst
}

// gridAmplitudeScale converts a matched-filter output sample (templates
// are unit-energy at the up-sampled rate) into the T_s-domain amplitude
// convention the subtraction and the rest of the pipeline use:
// NormConstant(T_s/U) / NormConstant(T_s), or 0 when the latter is 0,
// computed once per template in newDetector. Only DisableRefinement
// detectors hold it.
func (d *Detector) gridAmplitudeScale(tmplIdx int) float64 {
	return d.gridScales[tmplIdx]
}

// interpolateY3 returns the fractional offset of the magnitude peak from
// the three matched-filter output samples centered on index idx, via the
// same three-point parabolic fit the full-output scan used (zero at the
// output boundaries, where no window exists).
func (d *Detector) interpolateY3(y3 [3]complex128, idx int) float64 {
	if idx <= 0 || idx >= d.cirLen*d.cfg.Upsample-1 {
		return 0
	}
	window := []float64{cmplx.Abs(y3[0]), cmplx.Abs(y3[1]), cmplx.Abs(y3[2])}
	return dsp.InterpolatePeak(window, 1)
}

// projectAmplitude computes the least-squares amplitude of the template
// (as rendered by RenderInto, i.e. discretely unit-energy) located at the
// fractional peak position, against the current residual. The second
// return value is the projection score |<r,s>|²/‖s‖², the amount of
// residual energy the subtraction will remove.
func (d *Detector) projectAmplitude(residual []complex128, tmplIdx int, peakPos float64) (complex128, float64) {
	shape := d.bank.Shape(tmplIdx)
	norm := d.norms[tmplIdx]
	if norm == 0 {
		return 0, 0
	}
	halfSamples := shape.SupportHalfWidth() / d.ts
	lo := max(int(peakPos-halfSamples), 0)
	hi := min(int(peakPos+halfSamples)+1, len(residual)-1)
	var num complex128
	var den float64
	buf := d.evalBuf
	for n := lo; n <= hi; n += len(buf) {
		vals := buf[:min(hi-n+1, len(buf))]
		shape.EvalRun(vals, n, peakPos, d.ts)
		for k, e := range vals {
			v := norm * e
			num += residual[n+k] * complex(v, 0)
			den += v * v
		}
	}
	if den == 0 {
		return 0, 0
	}
	score := (real(num)*real(num) + imag(num)*imag(num)) / den
	return num * complex(1/den, 0), score
}

// refinePeak maximizes the projection score over the peak position (in
// T_s samples) in a bracket of ±1 up-sampled sample around the coarse
// estimate using a golden-section search, and returns the refined
// position together with its least-squares amplitude and the number of
// search steps taken (for the instrumentation layer).
func (d *Detector) refinePeak(residual []complex128, tmplIdx int, coarse float64) (float64, complex128, int) {
	const golden = 0.6180339887498949
	half := 1 / float64(d.cfg.Upsample)
	lo, hi := coarse-half, coarse+half
	x1 := hi - golden*(hi-lo)
	x2 := lo + golden*(hi-lo)
	_, f1 := d.projectAmplitude(residual, tmplIdx, x1)
	_, f2 := d.projectAmplitude(residual, tmplIdx, x2)
	steps := 0
	for i := 0; i < 40 && hi-lo > 1e-7; i++ {
		steps++
		if f1 < f2 {
			lo, x1, f1 = x1, x2, f2
			x2 = lo + golden*(hi-lo)
			_, f2 = d.projectAmplitude(residual, tmplIdx, x2)
		} else {
			hi, x2, f2 = x2, x1, f1
			x1 = hi - golden*(hi-lo)
			_, f1 = d.projectAmplitude(residual, tmplIdx, x1)
		}
	}
	pos := (lo + hi) / 2
	alpha, _ := d.projectAmplitude(residual, tmplIdx, pos)
	return pos, alpha, steps
}

// MatchedFilterOutputs returns |y_i| for every template against the given
// CIR taps, in the up-sampled domain — the curves of the paper's Fig. 4b
// and Fig. 6b. The second return value is the up-sampled tap spacing.
// Like Detect it uses (and may rebuild) the cached plans, so it is not
// safe to call concurrently with other methods. A default-path detector
// holds no MatchedFilterBank, so it builds one for the call. With a
// recorder attached, the call records its executions of the detector's own
// plans (the up-sampler, and the reference path's bank) before returning;
// a default-path call's throwaway bank is not counted.
func (d *Detector) MatchedFilterOutputs(taps []complex128) ([][]float64, float64, error) {
	if len(taps) == 0 {
		return nil, 0, fmt.Errorf("core: empty CIR")
	}
	if err := d.ensureState(len(taps)); err != nil {
		return nil, 0, err
	}
	fbank := d.fbank
	if fbank == nil {
		var err error
		if fbank, err = dsp.NewMatchedFilterBank(d.templates, len(d.up)); err != nil {
			return nil, 0, err
		}
	}
	// Filter the taps scaled as Detect scales them and scale |y| back.
	e := scaleExponent(taps)
	scaleInto(d.residual, taps, -e)
	up := d.upsample.Execute(d.up, d.residual)
	if err := fbank.Transform(up); err != nil {
		return nil, 0, err
	}
	out := make([][]float64, len(d.templates))
	y := make([]complex128, len(up))
	for t := range d.templates {
		if _, err := fbank.FilterInto(y, t); err != nil {
			return nil, 0, err
		}
		out[t] = dsp.Abs(y)
		for i, v := range out[t] {
			out[t][i] = math.Ldexp(v, e)
		}
	}
	d.recordPlanExecs()
	return out, d.tsUp, nil
}

// scaleExponent returns the binary exponent e of v's largest component,
// which 2^−e scales into [0.5, 1), or 0 when every component is zero.
func scaleExponent(v []complex128) int {
	m := 0.0
	for _, c := range v {
		m = max(m, math.Abs(real(c)), math.Abs(imag(c)))
	}
	if m == 0 {
		return 0
	}
	_, e := math.Frexp(m)
	return e
}

// scaleInto writes src scaled by 2^k into dst, component by component:
// exactly, unless a component leaves the normal range.
func scaleInto(dst, src []complex128, k int) {
	if k == 0 {
		copy(dst, src)
		return
	}
	if k >= -1000 && k <= 1000 {
		s := math.Ldexp(1, k)
		for i, c := range src {
			dst[i] = complex(real(c)*s, imag(c)*s)
		}
		return
	}
	for i, c := range src {
		dst[i] = scaleComplex(c, k)
	}
}

// scaleComplex returns c scaled by 2^k, component by component.
func scaleComplex(c complex128, k int) complex128 {
	return complex(math.Ldexp(real(c), k), math.Ldexp(imag(c), k))
}

func sortResponsesByDelay(rs []Response) {
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0 && rs[j].Delay < rs[j-1].Delay; j-- {
			rs[j], rs[j-1] = rs[j-1], rs[j]
		}
	}
}
