package concurrentranging

// One benchmark per table and figure of the paper (see DESIGN.md §4).
// Each benchmark regenerates its experiment with a reduced Monte-Carlo
// budget per iteration and reports the headline quantities as custom
// metrics, so `go test -bench=.` both times the harness and reprints the
// reproduced numbers. crbench runs the same generators with the paper's
// full trial counts.

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand/v2"
	"runtime"
	"testing"

	"github.com/uwb-sim/concurrent-ranging/internal/channel"
	"github.com/uwb-sim/concurrent-ranging/internal/core"
	"github.com/uwb-sim/concurrent-ranging/internal/dsp"
	"github.com/uwb-sim/concurrent-ranging/internal/dw1000"
	"github.com/uwb-sim/concurrent-ranging/internal/experiments"
	"github.com/uwb-sim/concurrent-ranging/internal/geom"
	"github.com/uwb-sim/concurrent-ranging/internal/pulse"
	"github.com/uwb-sim/concurrent-ranging/internal/sim"
	"github.com/uwb-sim/concurrent-ranging/ranging"
)

func BenchmarkFig1MultipathResolution(b *testing.B) {
	var wide, narrow int
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig1()
		if err != nil {
			b.Fatal(err)
		}
		wide, narrow = r.ResolvablePeaksWide, r.ResolvablePeaksNarrow
	}
	b.ReportMetric(float64(wide), "peaks@900MHz")
	b.ReportMetric(float64(narrow), "peaks@50MHz")
}

func BenchmarkFig2EstimatedCIR(b *testing.B) {
	var mpcs int
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig2(uint64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		mpcs = len(r.MPCIndexes)
	}
	b.ReportMetric(float64(mpcs), "visible-MPCs")
}

func BenchmarkSec3ResponseDelay(b *testing.B) {
	var minDelay, chosen float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Sec3Delay()
		if err != nil {
			b.Fatal(err)
		}
		minDelay, chosen = r.MinResponseDelay, r.ResponseDelay
	}
	b.ReportMetric(minDelay*1e6, "min-Δresp-µs")
	b.ReportMetric(chosen*1e6, "Δresp-µs")
}

func BenchmarkSec3MessageCount(b *testing.B) {
	var sched, conc int
	for i := 0; i < b.N; i++ {
		r, err := experiments.Sec3Messages([]int{10})
		if err != nil {
			b.Fatal(err)
		}
		sched, conc = r.Scheduled[0], r.Concurrent[0]
	}
	b.ReportMetric(float64(sched), "msgs-scheduled-N10")
	b.ReportMetric(float64(conc), "msgs-concurrent-N10")
}

func BenchmarkFig4ResponseDetection(b *testing.B) {
	var worst float64
	var rate float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig4(nil, 10, uint64(i+1), true)
		if err != nil {
			b.Fatal(err)
		}
		worst, rate = 0, 1
		for j := range r.TrueDistances {
			if e := absf(r.MeanDistance[j] - r.TrueDistances[j]); e > worst {
				worst = e
			}
			if r.PerResponderRate[j] < rate {
				rate = r.PerResponderRate[j]
			}
		}
	}
	b.ReportMetric(worst, "worst-mean-error-m")
	b.ReportMetric(rate*100, "min-detection-%")
}

func BenchmarkFig5PulseShapes(b *testing.B) {
	var widest float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig5()
		if err != nil {
			b.Fatal(err)
		}
		widest = r.Durations[len(r.Durations)-1]
	}
	b.ReportMetric(widest*1e9, "s4-duration-ns")
}

func BenchmarkSec5RangingPrecision(b *testing.B) {
	var s1, s2, s3 float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Sec5(nil, 300, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		s1, s2, s3 = r.Sigma[0], r.Sigma[1], r.Sigma[2]
	}
	b.ReportMetric(s1*100, "σ1-cm")
	b.ReportMetric(s2*100, "σ2-cm")
	b.ReportMetric(s3*100, "σ3-cm")
}

func BenchmarkFig6PulseShapeID(b *testing.B) {
	ok := 0
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig6(nil, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Identified) == 2 && r.Identified[0] == 0 && r.Identified[1] == 2 {
			ok++
		}
	}
	b.ReportMetric(float64(ok)/float64(b.N)*100, "correct-ID-%")
}

func BenchmarkTable1IdentificationRate(b *testing.B) {
	var minRate float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table1(nil, 20, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		minRate = 100
		for j := range r.Distances {
			minRate = min(minRate, min(r.RateS2[j], r.RateS3[j]))
		}
	}
	b.ReportMetric(minRate, "min-ID-rate-%")
}

func BenchmarkSec6OverlapDetection(b *testing.B) {
	var ss, th float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Sec6(nil, 100, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		ss, th = r.SearchSubtractRate, r.ThresholdRate
	}
	b.ReportMetric(ss*100, "search-subtract-%")
	b.ReportMetric(th*100, "threshold-%")
}

func BenchmarkSec7ResponseModulation(b *testing.B) {
	var slots75 int
	for i := 0; i < b.N; i++ {
		r, err := experiments.Sec7([]float64{75})
		if err != nil {
			b.Fatal(err)
		}
		slots75 = r.Slots[0]
	}
	b.ReportMetric(float64(slots75), "N_RPM@75m")
}

func BenchmarkFig8CombinedScheme(b *testing.B) {
	var rate float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig8(nil, 5, uint64(i+1), true)
		if err != nil {
			b.Fatal(err)
		}
		rate = r.IdentificationRate
	}
	b.ReportMetric(rate*100, "identified-%")
}

func BenchmarkSec8Scalability(b *testing.B) {
	var capacity int
	for i := 0; i < b.N; i++ {
		r, err := experiments.Sec8()
		if err != nil {
			b.Fatal(err)
		}
		capacity = r.HeadlineResponders
	}
	b.ReportMetric(float64(capacity), "N_max@20m")
}

func BenchmarkAblationUpsampling(b *testing.B) {
	var r1, r16 float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationUpsample(nil, 40, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		r1, r16 = r.SuccessRate[0], r.SuccessRate[len(r.SuccessRate)-1]
	}
	b.ReportMetric(r1*100, "overlap-x1-%")
	b.ReportMetric(r16*100, "overlap-x16-%")
}

func BenchmarkAblationTXQuantization(b *testing.B) {
	var with, ideal float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationQuantization(nil, 15, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		with, ideal = r.WithQuantizationRMSE, r.IdealRMSE
	}
	b.ReportMetric(with, "rmse-dw1000-m")
	b.ReportMetric(ideal, "rmse-ideal-m")
}

func BenchmarkAblationThreshold(b *testing.B) {
	var missAtDefault float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationThreshold(nil, 10, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		missAtDefault = r.MissRate[2]
	}
	b.ReportMetric(missAtDefault*100, "miss@6x-%")
}

// ---- micro-benchmarks of the core pipeline ----

// BenchmarkDetectorSearchAndSubtract times one automatic-mode Detect of
// the three-responder hallway CIR on the 3-shape bank, on the default
// path and on ModeReference.
func BenchmarkDetectorSearchAndSubtract(b *testing.B) {
	bank, err := pulse.DefaultBank(dw1000.SampleInterval, 3)
	if err != nil {
		b.Fatal(err)
	}
	taps := benchCIR(b)
	for _, path := range []struct {
		name string
		mode core.DetectorMode
	}{{"default", core.ModeAuto}, {"reference", core.ModeReference}} {
		b.Run(path.name, func(b *testing.B) {
			det, err := core.NewDetector(bank, core.DetectorConfig{Mode: path.mode})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := det.Detect(taps, dw1000.DefaultNoiseRMS); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDetectBank108 times one Detect on the full 108-shape bank on
// the default path and on ModeReference, serially and with the template fan-out over
// GOMAXPROCS goroutines (DetectorConfig.Workers). Every CIR holds three
// overlapping responses of random shapes plus receiver noise, as in the
// fullbank workload.
func BenchmarkDetectBank108(b *testing.B) {
	bank, err := pulse.DefaultBank(dw1000.SampleInterval, pulse.NumShapes)
	if err != nil {
		b.Fatal(err)
	}
	noise := dw1000.DefaultNoiseRMS
	r := rand.New(rand.NewPCG(108, 3))
	cirs := make([][]complex128, 8)
	for i := range cirs {
		taps := make([]complex128, dw1000.CIRLength)
		base := 80 + r.Float64()*800
		for k := 0; k < 3; k++ {
			amp := cmplx.Rect(noise*(30+r.Float64()*300), r.Float64()*2*math.Pi)
			pos := base + (r.Float64()-0.5)*8
			bank.Shape(r.IntN(bank.Len())).RenderInto(taps, amp, pos, dw1000.SampleInterval)
		}
		sigma := noise / math.Sqrt2
		for j := range taps {
			taps[j] += complex(r.NormFloat64()*sigma, r.NormFloat64()*sigma)
		}
		cirs[i] = taps
	}
	workers := []int{1}
	if p := runtime.GOMAXPROCS(0); p > 1 {
		workers = append(workers, p)
	}
	for _, path := range []struct {
		name string
		mode core.DetectorMode
	}{{"default", core.ModeAuto}, {"reference", core.ModeReference}} {
		for _, w := range workers {
			b.Run(fmt.Sprintf("%s/workers=%d", path.name, w), func(b *testing.B) {
				det, err := core.NewDetector(bank, core.DetectorConfig{Mode: path.mode, Workers: w})
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := det.Detect(cirs[i%len(cirs)], noise); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkMatchedFilterBank1016 times one 3-template matched filtering
// of a 1016-tap CIR: one shared forward FFT of the signal plus a
// precomputed template spectrum per filter, the shape Detect uses per
// search-and-subtract iteration.
func BenchmarkMatchedFilterBank1016(b *testing.B) {
	bank, err := pulse.DefaultBank(dw1000.SampleInterval, 3)
	if err != nil {
		b.Fatal(err)
	}
	taps := benchCIR(b)
	templates := make([][]complex128, bank.Len())
	for t := range templates {
		templates[t] = bank.Template(t)
	}
	fbank, err := dsp.NewMatchedFilterBank(templates, len(taps))
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]complex128, len(taps))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fbank.Transform(taps); err != nil {
			b.Fatal(err)
		}
		for t := range templates {
			if _, err := fbank.FilterInto(dst, t); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkUpsamplePlan4x(b *testing.B) {
	taps := benchCIR(b)
	plan, err := dsp.NewUpsamplePlan(len(taps), 4)
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]complex128, len(taps)*4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan.Execute(dst, taps)
	}
}

// BenchmarkUpsampleAddSegment4x times the detector's per-subtraction
// update of its up-sampled residual: the image of one 900 MHz pulse
// rendered at T_s (11 samples) added into the 4× up-sampled 1016-tap CIR.
func BenchmarkUpsampleAddSegment4x(b *testing.B) {
	taps := benchCIR(b)
	plan, err := dsp.NewUpsamplePlan(len(taps), 4)
	if err != nil {
		b.Fatal(err)
	}
	shape, err := pulse.ForRegister(pulse.DefaultRegister)
	if err != nil {
		b.Fatal(err)
	}
	dst := plan.Execute(make([]complex128, len(taps)*4), taps)
	seg, lo := shape.RenderSegment(nil, -0.01, 300.3, dw1000.SampleInterval, len(taps))
	if len(seg) != 11 {
		b.Fatalf("segment of %d samples, want 11", len(seg))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan.AddSegment(dst, seg, lo)
	}
}

func BenchmarkConcurrentRound(b *testing.B) {
	for i := 0; i < b.N; i++ {
		net, err := sim.NewNetwork(sim.NetworkConfig{
			Environment: channel.Hallway(), Seed: uint64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		init, err := net.AddNode(sim.NodeConfig{ID: -1, Name: "init", Pos: geom.Point{X: 2, Y: 0.9}})
		if err != nil {
			b.Fatal(err)
		}
		var resps []*sim.Node
		for j, d := range []float64{3, 6, 10} {
			n, err := net.AddNode(sim.NodeConfig{ID: j, Pos: geom.Point{X: 2 + d, Y: 0.9}})
			if err != nil {
				b.Fatal(err)
			}
			resps = append(resps, n)
		}
		if _, err := net.RunConcurrentRound(init, resps, sim.RoundConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFullSessionPipeline(b *testing.B) {
	sc := ranging.NewScenario(ranging.Config{
		Environment: ranging.EnvHallway, Seed: 1, NumShapes: 3, MaxRange: 75,
	})
	sc.SetInitiator(2, 0.9)
	sc.AddResponder(0, 5, 0.9)
	sc.AddResponder(1, 8, 0.9)
	sc.AddResponder(2, 12, 0.9)
	session, err := sc.Build()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := session.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchCIR builds a representative three-response CIR for DSP benches.
func benchCIR(b *testing.B) []complex128 {
	b.Helper()
	net, err := sim.NewNetwork(sim.NetworkConfig{Environment: channel.Hallway(), Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	init, err := net.AddNode(sim.NodeConfig{ID: -1, Name: "init", Pos: geom.Point{X: 2, Y: 0.9}})
	if err != nil {
		b.Fatal(err)
	}
	var resps []*sim.Node
	for j, d := range []float64{3, 6, 10} {
		n, err := net.AddNode(sim.NodeConfig{ID: j, Pos: geom.Point{X: 2 + d, Y: 0.9}})
		if err != nil {
			b.Fatal(err)
		}
		resps = append(resps, n)
	}
	round, err := net.RunConcurrentRound(init, resps, sim.RoundConfig{})
	if err != nil {
		b.Fatal(err)
	}
	return round.Reception.CIR.Taps
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func BenchmarkAblationRefinement(b *testing.B) {
	var gridRMSE, refinedRMSE float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationRefinement(nil, 40, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		gridRMSE, refinedRMSE = r.GridDelayRMSE, r.RefinedDelayRMSE
	}
	b.ReportMetric(gridRMSE, "grid-rmse-ps")
	b.ReportMetric(refinedRMSE, "refined-rmse-ps")
}

func BenchmarkAblationSlotPlan(b *testing.B) {
	var paperWide, safeWide float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationSlotPlan(nil, 6, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		last := len(r.Spreads) - 1
		paperWide, safeWide = r.PaperRate[last], r.SafeRate[last]
	}
	b.ReportMetric(paperWide*100, "paper-plan-wide-%")
	b.ReportMetric(safeWide*100, "safe-plan-wide-%")
}

func BenchmarkMeasuredCampaign(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Campaign(nil, []int{8}, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		ratio = r.ScheduledDuration[0] / r.ConcurrentDuration[0]
	}
	b.ReportMetric(ratio, "latency-ratio-N8")
}

func BenchmarkCaptureLimits(b *testing.B) {
	var equalAt9 float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Capture(nil, 10, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		equalAt9 = r.EqualRate[len(r.EqualRate)-1]
	}
	b.ReportMetric(equalAt9*100, "equal-power-decode-N9-%")
}
