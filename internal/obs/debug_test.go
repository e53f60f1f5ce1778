package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

// fetch GETs a path from the debug server and returns status + body.
func fetch(t *testing.T, addr, path string) (int, string) {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestServeDebugExposesPprofAndExpvar(t *testing.T) {
	reg := NewRegistry()
	reg.Count("sim.frames_on_air", 7)
	reg.Observe("detector.iterations", 3)

	srv, err := ServeDebug("localhost:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr := srv.Addr
	if !strings.Contains(addr, ":") {
		t.Fatalf("bound address %q has no port", addr)
	}

	// pprof index and a concrete profile endpoint respond.
	if code, body := fetch(t, addr, "/debug/pprof/"); code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("pprof index: status %d, body %.80q", code, body)
	}
	if code, _ := fetch(t, addr, "/debug/pprof/cmdline"); code != http.StatusOK {
		t.Errorf("pprof cmdline: status %d", code)
	}

	// /debug/vars keeps expvar's standard variables.
	code, body := fetch(t, addr, "/debug/vars")
	if code != http.StatusOK {
		t.Fatalf("expvar: status %d", code)
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &vars); err != nil {
		t.Fatalf("expvar body is not JSON: %v", err)
	}
	for _, name := range []string{"cmdline", "memstats"} {
		if _, ok := vars[name]; !ok {
			t.Errorf("expvar missing standard variable %q", name)
		}
	}

	// /debug/metrics.json carries the registry snapshot.
	snap := fetchSnapshot(t, addr)
	if got := snap.CounterValue("sim.frames_on_air"); got != 7 {
		t.Errorf("snapshot counter = %d, want 7", got)
	}
	if _, ok := snap.HistogramByName("detector.iterations"); !ok {
		t.Errorf("snapshot missing detector.iterations histogram: %+v", snap)
	}

	// The snapshot is live, not a serve-time copy.
	reg.Count("sim.frames_on_air", 3)
	if got := fetchSnapshot(t, addr).CounterValue("sim.frames_on_air"); got != 10 {
		t.Errorf("snapshot did not follow the registry: counter = %d, want 10", got)
	}
}

// fetchSnapshot GETs and decodes /debug/metrics.json.
func fetchSnapshot(t *testing.T, addr string) Snapshot {
	t.Helper()
	code, body := fetch(t, addr, "/debug/metrics.json")
	if code != http.StatusOK {
		t.Fatalf("/debug/metrics.json: status %d", code)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/debug/metrics.json is not a Snapshot: %v", err)
	}
	return snap
}

func TestServeDebugMetricsEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Count("sim.frames_on_air", 7)

	srv, err := ServeDebug("localhost:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// /metrics serves a checker-clean Prometheus exposition.
	code, body := fetch(t, srv.Addr, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: status %d", code)
	}
	if err := CheckPrometheusText(strings.NewReader(body)); err != nil {
		t.Fatalf("/metrics scrape invalid: %v\n%s", err, body)
	}
	if !strings.Contains(body, "sim_frames_on_air 7") {
		t.Errorf("/metrics missing registry counter:\n%s", body)
	}

	// /debug/metrics.json decodes into a Snapshot.
	if got := fetchSnapshot(t, srv.Addr).CounterValue("sim.frames_on_air"); got != 7 {
		t.Errorf("decoded counter = %d, want 7", got)
	}
}

func TestServeDebugCloseFreesPort(t *testing.T) {
	srv, err := ServeDebug("localhost:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// The exact address must be bindable again once the handle is closed.
	again, err := ServeDebug(addr, nil)
	if err != nil {
		t.Fatalf("rebinding %s after Close: %v", addr, err)
	}
	defer again.Close()
	if _, err := http.Get("http://" + addr + "/metrics"); err != nil {
		t.Fatalf("rebound server unreachable: %v", err)
	}
}

func TestServeDebugBadAddress(t *testing.T) {
	if _, err := ServeDebug("256.0.0.1:bogus", NewRegistry()); err == nil {
		t.Fatal("nonsense address accepted")
	}
}

func TestServeDebugNilRegistry(t *testing.T) {
	srv, err := ServeDebug("localhost:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if code, _ := fetch(t, srv.Addr, "/debug/vars"); code != http.StatusOK {
		t.Errorf("expvar without registry: status %d", code)
	}
	if code, _ := fetch(t, srv.Addr, "/metrics"); code != http.StatusOK {
		t.Errorf("/metrics without registry: status %d", code)
	}
}
