package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"testing"
	"time"

	"github.com/uwb-sim/concurrent-ranging/ranging"
)

// shortSizes keeps every workload to a fraction of a second.
var shortSizes = sizes{
	setups:             1,
	sessionRounds:      12,
	sessionCheckRounds: 4,
	sessionCountRounds: 6,
	fullbankPool:       8,
	fullbankLayerCIRs:  4,
	swarmNodes:         2000,
}

func shortConfig(seed uint64) config {
	return config{seed: seed, seconds: 0.2, workers: 2, sizes: shortSizes}
}

// benchmarkFile is the part of BENCHMARK.json the tests hold the program
// to: the declared metric names and units.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestCatalogMatchesBenchmarkFile pins the program's metric tables to the
// names and units BENCHMARK.json declares.
func TestCatalogMatchesBenchmarkFile(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.EndToEnd) != len(endToEnd) || len(f.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d end-to-end and %d per-layer metrics; the program %d and %d",
			len(f.EndToEnd), len(f.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range f.EndToEnd {
		if d := endToEnd[i]; d.name != m.Name || d.unit != m.Unit {
			t.Errorf("end_to_end[%d] = %s %s, program has %s %s", i, m.Name, m.Unit, d.name, d.unit)
		}
	}
	for i, m := range f.PerLayer {
		if d := perLayer[i]; d.name != m.Name || d.unit != m.Unit {
			t.Errorf("per_layer[%d] = %s %s, program has %s %s", i, m.Name, m.Unit, d.name, d.unit)
		}
	}
	for _, w := range f.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
}

// TestEveryMetricReported runs every workload bare and traced at the short
// size and checks each declared metric is present, finite and carries its
// unit.
func TestEveryMetricReported(t *testing.T) {
	for name := range workloads {
		for _, traced := range []bool{false, true} {
			rep, _, err := run(name, traced, shortConfig(1))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if !rep.Correct || rep.Attempted < 1 || len(rep.Metrics) != len(defs) {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d with %d metrics, want %d",
					name, traced, rep.Correct, rep.Attempted, len(rep.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := rep.Metrics[d.name]
				if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s traced=%v: %s = %+v, want a finite value in %s", name, traced, d.name, m, d.unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end %s = %g, want > 0", name, d.name, m.Value)
				}
			}
		}
	}
}

// deterministic are the metrics that must repeat exactly at one seed.
var deterministic = map[string]bool{
	"found_ratio": true, "err_m": true,
	"detector.iterations": true, "detector.template_evals": true, "detector.refine_steps": true,
	"detector.useful_ratio": true, "dsp.upsample_execs": true, "dsp.bank_transforms": true,
	"dsp.bank_shift_subtracts": true, "detector.batch_balance": true,
	"sim.frames_on_air": true, "sim.receptions": true, "locate.iterations": true,
	"sim.engine_windows": true, "sim.engine_bus_messages": true, "sim.engine_events_per_window": true,
	"sim.engine_heap_high_water": true, "sim.cross_shard_share": true,
}

// TestDeterministicOutputsRepeat runs each workload twice at the working
// seed (1) and at a held-out seed (7) and requires the fidelity scores,
// the swarm event count and every per-op count to repeat exactly.
func TestDeterministicOutputsRepeat(t *testing.T) {
	for _, seed := range []uint64{1, 7} {
		for name := range workloads {
			for _, traced := range []bool{false, true} {
				a, _, err := run(name, traced, shortConfig(seed))
				if err != nil {
					t.Fatal(err)
				}
				b, _, err := run(name, traced, shortConfig(seed))
				if err != nil {
					t.Fatal(err)
				}
				for metric := range deterministic {
					av, ok := a.Metrics[metric]
					if ok && av != b.Metrics[metric] {
						t.Errorf("seed %d %s traced=%v: %s = %v then %v", seed, name, traced, metric, av.Value, b.Metrics[metric].Value)
					}
				}
			}
		}
	}
}

// TestWrongDetectionIsFailedNotTimed poisons one CIR so the detector runs
// into its iteration cap (a NaN noise RMS disables the threshold stop) and
// one so it returns an error; both must count as failed ops, and their
// batches must contribute no time and no latency sample.
func TestWrongDetectionIsFailedNotTimed(t *testing.T) {
	const batch = 4
	p, err := renderPool(3, 3*batch)
	if err != nil {
		t.Fatal(err)
	}
	p.inputs[1].NoiseRMS = math.NaN()
	p.inputs[2*batch].NoiseRMS = 0
	eng, err := fullbankEngine(2, batch, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	f := &fullbankRun{}
	f.runBatches(eng, p, batch, time.Nanosecond, 3)
	l := f.loop
	if l.attempted != 3*batch || l.failed != 2 || l.ops != batch || len(l.perOpMS) != 1 {
		t.Fatalf("attempted %d, failed %d, timed ops %d, samples %d; want %d, 2, %d, 1",
			l.attempted, l.failed, l.ops, len(l.perOpMS), 3*batch, batch)
	}
	if want := time.Duration(l.perOpMS[0] * batch * float64(time.Millisecond)); l.busy-want > time.Microsecond || want-l.busy > time.Microsecond {
		t.Fatalf("busy %v, want the one good batch's %v", l.busy, want)
	}
}

// TestComposedMismatchFailsTheRun pins that a composed round differing from
// Session.Run is a check failure, which reports no numbers.
func TestComposedMismatchFailsTheRun(t *testing.T) {
	want := []roundResult{{fix: ranging.Position{X: 9.5, Y: 1.1}}}
	got := []roundResult{{fix: ranging.Position{X: 9.5, Y: 1.1}, failed: true}}
	var ce *checkError
	if err := checkComposed(want, got); !errors.As(err, &ce) {
		t.Fatalf("checkComposed = %v, want a check failure", err)
	}
	if err := checkComposed(want, want); err != nil {
		t.Fatalf("identical rounds: %v", err)
	}
}
