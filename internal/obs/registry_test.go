package obs

import (
	"encoding/json"
	"sync"
	"testing"
)

func TestRegistryRecorderRoundTrip(t *testing.T) {
	reg := NewRegistry()
	var rec Recorder = reg // *Registry satisfies Recorder
	rec.Count("sim.frames", 3)
	rec.Count("sim.frames", 2)
	rec.Observe("detector.iterations", 4)
	rec.SetGauge("campaign.workers", 8)

	snap := reg.Snapshot()
	if got := snap.CounterValue("sim.frames"); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	h, ok := snap.HistogramByName("detector.iterations")
	if !ok || h.Count != 1 || h.Sum != 4 {
		t.Fatalf("histogram = %+v ok=%v", h, ok)
	}
	if len(snap.Gauges) != 1 || snap.Gauges[0].Value != 8 {
		t.Fatalf("gauges = %+v", snap.Gauges)
	}
}

func TestRegistrySnapshotSorted(t *testing.T) {
	reg := NewRegistry()
	for _, name := range []string{"zz", "aa", "mm"} {
		reg.Count(name, 1)
		reg.Observe("h."+name, 1)
	}
	snap := reg.Snapshot()
	for i := 1; i < len(snap.Counters); i++ {
		if snap.Counters[i].Name < snap.Counters[i-1].Name {
			t.Fatalf("counters unsorted: %+v", snap.Counters)
		}
	}
	for i := 1; i < len(snap.Histograms); i++ {
		if snap.Histograms[i].Name < snap.Histograms[i-1].Name {
			t.Fatalf("histograms unsorted: %+v", snap.Histograms)
		}
	}
}

func TestRegistryConcurrentCreateAndRecord(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				reg.Count("c", 1)
				reg.Observe("h", 1)
				reg.SetGauge("g", float64(i))
			}
		}()
	}
	wg.Wait()
	snap := reg.Snapshot()
	if snap.CounterValue("c") != 1600 {
		t.Fatalf("counter = %d, want 1600", snap.CounterValue("c"))
	}
	if h, _ := snap.HistogramByName("h"); h.Count != 1600 {
		t.Fatalf("histogram count = %d, want 1600", h.Count)
	}
}

func TestSnapshotJSONIsValid(t *testing.T) {
	reg := NewRegistry()
	reg.Observe("h", 3)
	reg.Count("c", 1)
	data, err := json.Marshal(reg.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.CounterValue("c") != 1 {
		t.Fatalf("round-tripped snapshot = %+v", back)
	}
}

// BenchmarkRegistryCount measures the Recorder write path as a campaign's
// workers hit it: parallel Count calls on one existing counter.
func BenchmarkRegistryCount(b *testing.B) {
	reg := NewRegistry()
	const name = "detector.detect_calls"
	reg.Count(name, 0)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			reg.Count(name, 1)
		}
	})
}
