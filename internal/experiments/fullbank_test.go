package experiments

import (
	"testing"

	"github.com/uwb-sim/concurrent-ranging/internal/core"
	"github.com/uwb-sim/concurrent-ranging/internal/dw1000"
	"github.com/uwb-sim/concurrent-ranging/internal/pulse"
)

func TestFullBankAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("108-template detector comparison is slow")
	}
	r, err := FullBank(nil, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Templates != pulse.NumShapes {
		t.Errorf("Templates = %d, want %d", r.Templates, pulse.NumShapes)
	}
	if r.Agree != r.Trials {
		t.Errorf("only %d/%d trials equivalent between detector paths", r.Agree, r.Trials)
	}
	if r.Speedup <= 1 {
		t.Errorf("spectral path slower than reference: speedup %.2f", r.Speedup)
	}
	// The identification-throughput phase must have run and produced
	// positive rates; the ≥5× acceptance gate itself lives in the
	// reportcheck comparison against BENCH_4.json, not in this (noisy,
	// 4-trial) unit test.
	if r.IDCIRs != 2*r.Trials {
		t.Errorf("IDCIRs = %d, want %d", r.IDCIRs, 2*r.Trials)
	}
	if r.CallPerSec <= 0 || r.WarmPerSec <= 0 || r.BatchPerSec <= 0 {
		t.Errorf("non-positive throughput: call %.1f warm %.1f batch %.1f",
			r.CallPerSec, r.WarmPerSec, r.BatchPerSec)
	}
	if r.BatchSpeedup <= 0 {
		t.Errorf("BatchSpeedup = %.2f, want > 0", r.BatchSpeedup)
	}
	if r.Render() == "" {
		t.Error("empty render")
	}
}

func TestFullBankSingleTrial(t *testing.T) {
	// One trial gives a 2-CIR identification stream; the call-at-a-time
	// sample (at least 3) once indexed past its end.
	r, err := FullBank(nil, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.IDCIRs != 2 || r.CallPerSec <= 0 {
		t.Fatalf("IDCIRs = %d, CallPerSec = %g", r.IDCIRs, r.CallPerSec)
	}
}

// benchmarkFullBankDetect measures one Detect over the full 108-shape
// bank; the spectral/reference pair quantifies the fast path's speedup in
// the many-template regime (the ISSUE's ≥2× acceptance gate).
func benchmarkFullBankDetect(b *testing.B, mode core.DetectorMode) {
	bank, err := pulse.DefaultBank(dw1000.SampleInterval, pulse.NumShapes)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DetectorConfig{MaxResponses: 3, Mode: mode}
	det, err := core.NewDetector(bank, cfg)
	if err != nil {
		b.Fatal(err)
	}
	taps, noise := fullBankTrain(bank, 1, 3)
	if _, err := det.Detect(taps, noise); err != nil { // warm the cached plans
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := det.Detect(taps, noise); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFullBankDetectReference(b *testing.B) {
	benchmarkFullBankDetect(b, core.ModeReference)
}

func BenchmarkFullBankDetectSpectral(b *testing.B) {
	benchmarkFullBankDetect(b, core.ModeAuto)
}
