package experiments

import (
	"math"
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tbl := &Table{
		Title:  "demo",
		Header: []string{"a", "long-header"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
	}
	out := tbl.String()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "long-header") {
		t.Fatalf("rendering missing parts:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("unexpected line count %d:\n%s", len(lines), out)
	}
}

func TestSparkline(t *testing.T) {
	s := Series{Y: []float64{0, 0, 1, 0, 0}}
	line := s.Sparkline(5)
	if len([]rune(line)) != 5 {
		t.Fatalf("width %d", len(line))
	}
	if !strings.Contains(line, "@") {
		t.Fatalf("peak not rendered: %q", line)
	}
	if (&Series{}).Sparkline(5) != "" {
		t.Fatal("empty series must render empty")
	}
}

func TestFig1MultipathResolution(t *testing.T) {
	r, err := Fig1()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Paths) != 5 {
		t.Fatalf("%d paths, want LOS + 4 reflections", len(r.Paths))
	}
	// The paper's claim: at 900 MHz all five arrivals are resolvable; at
	// 50 MHz they merge into one or two humps.
	if r.ResolvablePeaksWide != 5 {
		t.Fatalf("wideband resolves %d peaks, want 5", r.ResolvablePeaksWide)
	}
	if r.ResolvablePeaksNarrow >= r.ResolvablePeaksWide {
		t.Fatalf("narrowband (%d) must resolve fewer peaks than wideband (%d)",
			r.ResolvablePeaksNarrow, r.ResolvablePeaksWide)
	}
	if r.ResolvablePeaksNarrow > 2 {
		t.Fatalf("narrowband resolves %d peaks, expected heavy overlap", r.ResolvablePeaksNarrow)
	}
	if !strings.Contains(r.Render(), "resolvable") {
		t.Fatal("render incomplete")
	}
}

func TestFig2CIRShape(t *testing.T) {
	r, err := Fig2(1)
	if err != nil {
		t.Fatal(err)
	}
	if r.LOSIndex != 12 {
		t.Fatalf("LOS at %d", r.LOSIndex)
	}
	if len(r.MPCIndexes) < 2 {
		t.Fatalf("only %d MPCs visible, want a multipath-rich CIR", len(r.MPCIndexes))
	}
	// LOS is the global maximum (normalized to 1).
	if math.Abs(r.Magnitude[r.LOSIndex]-1) > 1e-9 {
		t.Fatalf("LOS magnitude %g", r.Magnitude[r.LOSIndex])
	}
	for _, idx := range r.MPCIndexes {
		if idx <= r.LOSIndex {
			t.Fatalf("MPC at %d not after LOS", idx)
		}
	}
}

func TestSec3DelayPaperNumbers(t *testing.T) {
	r, err := Sec3Delay()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.MinResponseDelay-178.5e-6) > 0.5e-6 {
		t.Fatalf("minimum delay %g µs, want 178.5", r.MinResponseDelay*1e6)
	}
	if r.ResponseDelay != 290e-6 {
		t.Fatalf("chosen delay %g µs, want 290", r.ResponseDelay*1e6)
	}
}

func TestSec3MessagesScaling(t *testing.T) {
	r, err := Sec3Messages([]int{2, 10, 50})
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range r.N {
		if r.Scheduled[i] != n*(n-1) || r.Concurrent[i] != n {
			t.Fatalf("n=%d: %d vs %d", n, r.Scheduled[i], r.Concurrent[i])
		}
		if n > 2 && r.ConcurrentEnergy[i] >= r.ScheduledEnergy[i] {
			t.Fatalf("n=%d: concurrent energy not lower", n)
		}
	}
}

func TestFig4RecoversDistances(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo experiment skipped in -short mode")
	}
	r, err := Fig4(nil, 12, 3, true)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 6, 10}
	for i, w := range want {
		if r.PerResponderRate[i] < 0.9 {
			t.Fatalf("responder %d detected only %.0f%%", i, 100*r.PerResponderRate[i])
		}
		if math.Abs(r.MeanDistance[i]-w) > 0.1 {
			t.Fatalf("responder %d: mean %g, want %g", i, r.MeanDistance[i], w)
		}
		if r.StdDistance[i] > 0.1 {
			t.Fatalf("responder %d: std %g", i, r.StdDistance[i])
		}
	}
	if len(r.DetectedDelays) < 3 {
		t.Fatalf("first-round delays %v", r.DetectedDelays)
	}
}

func TestFig5ShapeWidths(t *testing.T) {
	r, err := Fig5()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Shapes) != 4 {
		t.Fatalf("%d shapes", len(r.Shapes))
	}
	for i := 1; i < len(r.Durations); i++ {
		if r.Durations[i] <= r.Durations[i-1] {
			t.Fatal("durations not increasing")
		}
		if r.Bandwidths[i] >= r.Bandwidths[i-1] {
			t.Fatal("bandwidths not decreasing")
		}
	}
}

func TestSec5PrecisionBallpark(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo experiment skipped in -short mode")
	}
	r, err := Sec5(nil, 600, 6)
	if err != nil {
		t.Fatal(err)
	}
	// All shapes range with a few centimeters of σ; the widest pulse may
	// not be more than ~50% worse than the default — the paper's
	// "negligible impact" claim.
	for i, sigma := range r.Sigma {
		if sigma < 0.015 || sigma > 0.04 {
			t.Fatalf("shape %d: σ %g outside the paper's centimeter regime", i, sigma)
		}
		if math.Abs(r.MeanError[i]) > 0.01 {
			t.Fatalf("shape %d: bias %g", i, r.MeanError[i])
		}
	}
	if r.Sigma[2] > 1.5*r.Sigma[0] {
		t.Fatalf("σ3/σ1 = %g, want the mild degradation of the paper", r.Sigma[2]/r.Sigma[0])
	}
}

func TestFig6Identification(t *testing.T) {
	r, err := Fig6(nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Identified) != 2 {
		t.Fatalf("%d responses", len(r.Identified))
	}
	if r.Identified[0] != 0 || r.Identified[1] != 2 {
		t.Fatalf("identified %v, want [0 2] (s1, s3)", r.Identified)
	}
	if len(r.MatchedFilters) != 3 {
		t.Fatalf("%d matched filters", len(r.MatchedFilters))
	}
}

func TestTable1HighIdentificationRates(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo experiment skipped in -short mode")
	}
	r, err := Table1(nil, 40, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range r.Distances {
		if r.RateS2[i] < 95 {
			t.Fatalf("s2 at %g m: %.1f%%, want ≥95%% (paper: ≥99.2%%)", d, r.RateS2[i])
		}
		if r.RateS3[i] < 95 {
			t.Fatalf("s3 at %g m: %.1f%%, want ≥95%%", d, r.RateS3[i])
		}
	}
}

func TestSec6OverlapComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo experiment skipped in -short mode")
	}
	r, err := Sec6(nil, 150, 9)
	if err != nil {
		t.Fatal(err)
	}
	if r.OverlappingTrials < 100 {
		t.Fatalf("only %d overlapping trials", r.OverlappingTrials)
	}
	// The paper's shape: search-and-subtract (92.6%) far ahead of the
	// threshold baseline (48%).
	if r.SearchSubtractRate < 0.85 {
		t.Fatalf("search-and-subtract %.1f%%, want ≥85%%", 100*r.SearchSubtractRate)
	}
	if r.ThresholdRate > 0.8 || r.ThresholdRate < 0.2 {
		t.Fatalf("threshold %.1f%%, want mid-range like the paper's 48%%", 100*r.ThresholdRate)
	}
	if r.SearchSubtractRate <= r.ThresholdRate {
		t.Fatal("search-and-subtract must beat the baseline")
	}
}

func TestSec7PaperSlotCounts(t *testing.T) {
	r, err := Sec7([]float64{75, 20})
	if err != nil {
		t.Fatal(err)
	}
	if r.Slots[0] != 4 {
		t.Fatalf("r_max 75 m: %d slots, want 4", r.Slots[0])
	}
	if r.Slots[1] != 15 {
		t.Fatalf("r_max 20 m: %d slots, want 15", r.Slots[1])
	}
	if math.Abs(r.MaxOffsetDistance-305) > 3 {
		t.Fatalf("δ_max·c = %g m, want ~305 (paper ≈307)", r.MaxOffsetDistance)
	}
}

func TestFig8CombinedScheme(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo experiment skipped in -short mode")
	}
	r, err := Fig8(nil, 8, 10, true)
	if err != nil {
		t.Fatal(err)
	}
	if r.Capacity != 12 || r.Slots != 4 || r.Shapes != 3 {
		t.Fatalf("layout %d slots × %d shapes = %d", r.Slots, r.Shapes, r.Capacity)
	}
	if r.IdentificationRate < 0.9 {
		t.Fatalf("identification %.1f%%", 100*r.IdentificationRate)
	}
	if r.MeanAbsError > 0.3 {
		t.Fatalf("mean |error| %g m with ideal transceiver", r.MeanAbsError)
	}
}

func TestSec8Headline(t *testing.T) {
	r, err := Sec8()
	if err != nil {
		t.Fatal(err)
	}
	if r.HeadlineResponders <= 1500 {
		t.Fatalf("headline capacity %d, want >1500", r.HeadlineResponders)
	}
	if r.HeadlineInitiatorOps != 2 {
		t.Fatalf("initiator ops %d", r.HeadlineInitiatorOps)
	}
	if r.HeadlineScheduledOps != 2*r.HeadlineResponders {
		t.Fatalf("scheduled ops %d, want %d", r.HeadlineScheduledOps, 2*r.HeadlineResponders)
	}
}

func TestAblationQuantizationPenalty(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo experiment skipped in -short mode")
	}
	r, err := AblationQuantization(nil, 25, 12)
	if err != nil {
		t.Fatal(err)
	}
	// The 8 ns truncation must dominate the CIR-derived distance error —
	// the Sect. III limitation.
	if r.WithQuantizationRMSE < 3*r.IdealRMSE {
		t.Fatalf("quantized RMSE %g vs ideal %g: penalty too small",
			r.WithQuantizationRMSE, r.IdealRMSE)
	}
	if r.IdealRMSE > 0.05 {
		t.Fatalf("ideal-transceiver RMSE %g, want centimeter-level", r.IdealRMSE)
	}
}

func TestAblationUpsampleMonotoneOrFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo experiment skipped in -short mode")
	}
	r, err := AblationUpsample(nil, 60, 11)
	if err != nil {
		t.Fatal(err)
	}
	// The T_s-domain peak refinement makes detection nearly independent
	// of the up-sampling factor; every factor must stay in the high-
	// success regime.
	for i, rate := range r.SuccessRate {
		if rate < 0.8 {
			t.Fatalf("factor %d: %.1f%%", r.Factors[i], 100*rate)
		}
	}
}

func TestAblationThresholdTradeOff(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo experiment skipped in -short mode")
	}
	r, err := AblationThreshold(nil, 20, 13)
	if err != nil {
		t.Fatal(err)
	}
	// Higher thresholds must not increase phantom detections.
	for i := 1; i < len(r.Factors); i++ {
		if r.MeanExtra[i] > r.MeanExtra[i-1]+0.5 {
			t.Fatalf("extra detections grew with threshold: %v", r.MeanExtra)
		}
	}
	// The default factor 6 keeps every responder.
	if r.MissRate[2] > 0.2 {
		t.Fatalf("default threshold misses %.0f%% of trials", 100*r.MissRate[2])
	}
}

func TestAblationRefinementDoesNotRegress(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo experiment skipped in -short mode")
	}
	r, err := AblationRefinement(nil, 40, 31)
	if err != nil {
		t.Fatal(err)
	}
	// The sub-sample refinement must match or beat the grid estimator on
	// relative-delay accuracy (both sit on the ~150 ps responder-
	// timestamp-jitter floor; the grid adds its 72 ps quantization).
	if r.RefinedDelayRMSE > r.GridDelayRMSE {
		t.Fatalf("refined RMSE %g ps worse than grid %g ps", r.RefinedDelayRMSE, r.GridDelayRMSE)
	}
	if r.RefinedPhantoms > r.GridPhantoms {
		t.Fatalf("refinement added phantoms: %g vs %g", r.RefinedPhantoms, r.GridPhantoms)
	}
}

func TestAblationSlotPlanLeakage(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo experiment skipped in -short mode")
	}
	r, err := AblationSlotPlan(nil, 8, 32)
	if err != nil {
		t.Fatal(err)
	}
	// Narrow deployments identify nearly everyone under either plan.
	if r.PaperRate[0] < 0.9 || r.SafeRate[0] < 0.85 {
		t.Fatalf("narrow spread rates %v / %v", r.PaperRate[0], r.SafeRate[0])
	}
	// At the widest spread the paper plan leaks across slot boundaries
	// (it ignores the round-trip factor 2); the safe plan holds up.
	last := len(r.Spreads) - 1
	if r.PaperRate[last] >= r.SafeRate[last] {
		t.Fatalf("expected paper-plan leakage at %g m spread: paper %v safe %v",
			r.Spreads[last], r.PaperRate[last], r.SafeRate[last])
	}
}

func TestCampaignMeasuredAdvantage(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo experiment skipped in -short mode")
	}
	r, err := Campaign(nil, []int{4, 8}, 77)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range r.N {
		if r.ScheduledMessages[i] != n*(n-1) || r.ConcurrentMessages[i] != n {
			t.Fatalf("n=%d: messages %d/%d", n, r.ScheduledMessages[i], r.ConcurrentMessages[i])
		}
		// The measured latency and energy advantages grow with N.
		if r.ConcurrentDuration[i] >= r.ScheduledDuration[i]/2 {
			t.Fatalf("n=%d: latency %g vs %g", n, r.ConcurrentDuration[i], r.ScheduledDuration[i])
		}
		if r.ConcurrentEnergy[i] >= r.ScheduledEnergy[i] {
			t.Fatalf("n=%d: energy %g vs %g", n, r.ConcurrentEnergy[i], r.ScheduledEnergy[i])
		}
	}
}

func TestCaptureSweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo experiment skipped in -short mode")
	}
	r, err := Capture(nil, 15, 81)
	if err != nil {
		t.Fatal(err)
	}
	// A single responder always decodes in both geometries.
	if r.GradedRate[0] != 1 || r.EqualRate[0] != 1 {
		t.Fatalf("single responder decode %v / %v", r.GradedRate[0], r.EqualRate[0])
	}
	last := len(r.Responders) - 1
	// Nine equal-power responders defeat the capture model; the graded
	// geometry (closest responder dominates) survives longer.
	if r.EqualRate[last] > 0.2 {
		t.Fatalf("equal-power decode at N=9: %v", r.EqualRate[last])
	}
	if r.GradedRate[last] <= r.EqualRate[last] {
		t.Fatalf("graded (%v) not better than equal (%v)", r.GradedRate[last], r.EqualRate[last])
	}
}
