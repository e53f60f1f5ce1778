package obs

import (
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"
)

// TestConcurrentScrapeWhileRecording hammers every debug endpoint while
// writer goroutines record through the full Recorder surface. Run with
// -race (CI does); the test's job is to surface data races between the
// scrape path (snapshots, exposition rendering) and live recording.
func TestConcurrentScrapeWhileRecording(t *testing.T) {
	reg := NewRegistry()
	vec := reg.CounterVec("race.labeled", "worker")

	srv, err := ServeDebug("localhost:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const (
		writers  = 4
		scrapers = 2
		rounds   = 200
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			child := vec.With(fmt.Sprint(id))
			for i := 0; i < rounds; i++ {
				reg.Count("race.counter", 1)
				reg.Count("race.other", 2)
				reg.Observe("race.histogram", float64(i)*1e-4)
				reg.SetGauge("race.gauge", float64(i))
				child.Inc()
			}
		}(w)
	}
	scrape := func(path string) {
		defer wg.Done()
		client := &http.Client{Timeout: 5 * time.Second}
		for i := 0; i < rounds/10; i++ {
			resp, err := client.Get("http://" + srv.Addr + path)
			if err != nil {
				t.Errorf("GET %s: %v", path, err)
				return
			}
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
		}
	}
	for s := 0; s < scrapers; s++ {
		wg.Add(3)
		go scrape("/metrics")
		go scrape("/debug/vars")
		go scrape("/debug/metrics.json")
	}
	wg.Wait()

	snap := reg.Snapshot()
	if got := snap.CounterValue("race.counter"); got != writers*rounds {
		t.Fatalf("race.counter = %d, want %d", got, writers*rounds)
	}
	if got := snap.CounterValue("race.labeled"); got != writers*rounds {
		t.Fatalf("race.labeled family sum = %d, want %d", got, writers*rounds)
	}
	h, ok := snap.HistogramByName("race.histogram")
	if !ok || h.Count != writers*rounds {
		t.Fatalf("race.histogram = %+v, want count %d", h, writers*rounds)
	}
}
