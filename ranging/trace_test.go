package ranging

import (
	"fmt"
	"strings"
	"testing"

	"github.com/uwb-sim/concurrent-ranging/internal/obs"
)

func traceSession(t *testing.T) *Session {
	t.Helper()
	sc := NewScenario(Config{Environment: EnvHallway, Seed: 11})
	sc.SetInitiator(1, 0.9)
	sc.AddResponder(0, 5, 0.9)
	sc.AddResponder(1, 9, 0.9)
	session, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	return session
}

func TestSessionTracerOrdering(t *testing.T) {
	session := traceSession(t)
	var events []TraceEvent
	session.SetTracer(func(e TraceEvent) { events = append(events, e) })
	if _, err := session.Run(); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("tracer received no events")
	}
	// A concurrent round walks the protocol phases strictly forward:
	// tx-init → rx-init → tx-resp → rx-aggregate → decode.
	phase := map[string]int{
		"tx-init": 0, "rx-init": 1, "tx-resp": 2, "rx-aggregate": 3, "decode": 4,
	}
	for i, e := range events {
		rank, known := phase[e.Kind]
		if !known {
			t.Fatalf("unknown event kind %q", e.Kind)
		}
		if i > 0 && rank < phase[events[i-1].Kind] {
			t.Fatalf("event %d (%s) out of phase order after %s", i, e.Kind, events[i-1].Kind)
		}
		if i > 0 && e.TimeSeconds < events[i-1].TimeSeconds {
			t.Fatalf("virtual time went backwards at event %d", i)
		}
	}
	if events[0].Kind != "tx-init" || events[len(events)-1].Kind != "decode" {
		t.Fatalf("round should start with tx-init and end with decode, got %s..%s",
			events[0].Kind, events[len(events)-1].Kind)
	}
	// Two responders: exactly two rx-init and two tx-resp events.
	counts := map[string]int{}
	for _, e := range events {
		counts[e.Kind]++
	}
	if counts["tx-init"] != 1 || counts["rx-init"] != 2 || counts["tx-resp"] != 2 ||
		counts["rx-aggregate"] != 1 || counts["decode"] != 1 {
		t.Fatalf("unexpected event counts %v", counts)
	}
	// The String rendering stays grep-able: time, node, kind on one line.
	line := events[0].String()
	if !strings.Contains(line, "µs") || !strings.Contains(line, "tx-init") {
		t.Fatalf("unexpected trace line %q", line)
	}
}

// museumSession builds the Fig. 8-style museum deployment: nine
// responders at x = 3.0 + 1.6·id m down a hallway, ranged with 4 RPM
// slots × 3 pulse shapes.
func museumSession(t *testing.T) *Session {
	t.Helper()
	sc := NewScenario(Config{Environment: EnvHallway, Seed: 3, MaxRange: 75, NumShapes: 3})
	sc.SetInitiator(1, 0.9)
	for id := 0; id < 9; id++ {
		sc.AddResponder(id, 3.0+1.6*float64(id), 0.9)
	}
	session, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	return session
}

// TestSessionTracerIsObservational pins that a tracer never changes a
// session: every Run returns the same result, bit for bit (fmt prints
// each float in its shortest round-trip form), with and without one.
func TestSessionTracerIsObservational(t *testing.T) {
	const rounds = 4
	run := func(traced bool) []string {
		session := museumSession(t)
		if traced {
			session.SetTracer(func(TraceEvent) {})
		}
		var out []string
		for r := 0; r < rounds; r++ {
			res, err := session.Run()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, fmt.Sprintf("%+v", *res))
		}
		return out
	}
	plain, traced := run(false), run(true)
	for r := range plain {
		if plain[r] != traced[r] {
			t.Fatalf("Run %d: the tracer changed the result", r)
		}
	}
}

func TestSessionNilTracerEmitsNothing(t *testing.T) {
	session := traceSession(t)
	fired := 0
	session.SetTracer(func(TraceEvent) { fired++ })
	session.SetTracer(nil)
	if _, err := session.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 0 {
		t.Fatalf("cleared tracer still received %d events", fired)
	}
}

func TestSessionRecorderObservesWithoutChanging(t *testing.T) {
	plain, err := traceSession(t).Run()
	if err != nil {
		t.Fatal(err)
	}
	recorded := traceSession(t)
	reg := obs.NewRegistry()
	recorded.SetRecorder(reg)
	got, err := recorded.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Measurements) != len(plain.Measurements) || got.AnchorDistance != plain.AnchorDistance {
		t.Fatalf("recorder changed the round: %+v vs %+v", got, plain)
	}
	for i := range plain.Measurements {
		if got.Measurements[i] != plain.Measurements[i] {
			t.Fatalf("measurement %d differs under recording: %+v vs %+v",
				i, got.Measurements[i], plain.Measurements[i])
		}
	}
	snap := reg.Snapshot()
	if snap.CounterValue("sim.frames_on_air") != 3 { // 1 INIT + 2 RESP
		t.Fatalf("frames_on_air = %d, want 3", snap.CounterValue("sim.frames_on_air"))
	}
	if snap.CounterValue("detector.detect_calls") != 1 {
		t.Fatalf("detect_calls = %d, want 1", snap.CounterValue("detector.detect_calls"))
	}
}
