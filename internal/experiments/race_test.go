package experiments

import (
	"testing"

	"github.com/uwb-sim/concurrent-ranging/internal/core"
	"github.com/uwb-sim/concurrent-ranging/internal/dw1000"
	"github.com/uwb-sim/concurrent-ranging/internal/pulse"
)

// TestParallelCampaignPerWorkerDetectors exercises the per-worker
// detector pattern under `go test -race`: each worker goroutine owns its
// own core.Detector (whose cached FFT plans and scratch buffers are not
// safe for concurrent use) and runs many trials through it. The results
// must also be independent of scheduling: every trial detecting the same
// CIR must produce identical responses.
func TestParallelCampaignPerWorkerDetectors(t *testing.T) {
	if testing.Short() {
		t.Skip("parallel campaign is slow under -race in -short mode")
	}
	bank, err := pulse.DefaultBank(dw1000.SampleInterval, 3)
	if err != nil {
		t.Fatal(err)
	}
	// A deterministic synthetic CIR shared read-only across all trials.
	taps := make([]complex128, dw1000.CIRLength)
	tmpl := bank.Template(1)
	for i, v := range tmpl {
		taps[300+i] += v * complex(0.02, 0)
		taps[420+i] += v * complex(0.012, 0.004)
	}
	newWorker := func() (*core.Detector, error) {
		return core.NewDetector(bank, core.DetectorConfig{})
	}
	const trials = 64
	results, err := parallelMapWith(nil, trials, newWorker,
		func(det *core.Detector, i int) ([]core.Response, error) {
			return det.Detect(taps, dw1000.DefaultNoiseRMS)
		})
	if err != nil {
		t.Fatal(err)
	}
	ref := results[0]
	if len(ref) == 0 {
		t.Fatal("detector found nothing in the synthetic CIR")
	}
	for i, got := range results[1:] {
		if len(got) != len(ref) {
			t.Fatalf("trial %d: %d responses, trial 0 had %d", i+1, len(got), len(ref))
		}
		for j := range got {
			if got[j] != ref[j] {
				t.Fatalf("trial %d response %d = %+v, want %+v (scheduling leaked into results)",
					i+1, j, got[j], ref[j])
			}
		}
	}
}
