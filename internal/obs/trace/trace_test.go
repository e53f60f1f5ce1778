package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// fixedClock returns a deterministic strictly increasing clock.
func fixedClock() func() float64 {
	var n float64
	return func() float64 { n += 0.001; return n }
}

func TestNilTracerAndSpanAreInert(t *testing.T) {
	var tr *Tracer
	sp := tr.Begin("root", Attrs{"k": 1})
	if sp != nil {
		t.Fatalf("nil tracer Begin = %v, want nil", sp)
	}
	if sp.Recording() {
		t.Error("nil span reports Recording")
	}
	if sp.ID() != 0 {
		t.Errorf("nil span ID = %d, want 0", sp.ID())
	}
	// All of these must be safe no-ops.
	child := sp.Begin("child", nil)
	child.Event("ev", nil)
	child.EndWith(nil)
	sp.EndWith(Attrs{"x": 2})
	if got := tr.Events(); got != nil {
		t.Errorf("nil tracer Events = %v, want nil", got)
	}
	if err := tr.Flush(); err != nil {
		t.Errorf("nil tracer Flush = %v", err)
	}
	if s := tr.Stats(); s != (Stats{}) {
		t.Errorf("nil tracer Stats = %+v", s)
	}
}

func TestSpanTreeAndRing(t *testing.T) {
	tr := New(Config{Clock: fixedClock()})
	root := tr.Begin("session.round", Attrs{"seed": 7})
	if !root.Recording() {
		t.Fatal("sampled root span not recording")
	}
	child := root.Begin("detect", Attrs{"templates": 3})
	child.Event("detect.round", Attrs{"round": 0, "reason": "accepted"})
	child.EndWith(Attrs{"responses": 1})
	root.EndWith(nil)

	evs := tr.Events()
	if len(evs) != 5 {
		t.Fatalf("got %d events, want 5", len(evs))
	}
	// Sequence numbers are contiguous and timestamps monotone.
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Errorf("event %d seq = %d", i, ev.Seq)
		}
		if i > 0 && evs[i].TS <= evs[i-1].TS {
			t.Errorf("timestamps not increasing at %d", i)
		}
	}
	if evs[0].Phase != PhaseBegin || evs[0].Name != "session.round" || evs[0].Parent != 0 {
		t.Errorf("root begin = %+v", evs[0])
	}
	if evs[1].Phase != PhaseBegin || evs[1].Parent != root.ID() {
		t.Errorf("child begin = %+v, want parent %d", evs[1], root.ID())
	}
	if evs[2].Phase != PhaseInstant || evs[2].Span != child.ID() {
		t.Errorf("instant = %+v, want span %d", evs[2], child.ID())
	}
	if evs[3].Phase != PhaseEnd || evs[3].Attrs["responses"] != 1 {
		t.Errorf("child end = %+v", evs[3])
	}
	if evs[4].Phase != PhaseEnd || evs[4].Span != root.ID() {
		t.Errorf("root end = %+v", evs[4])
	}
}

func TestRingKeepsMostRecent(t *testing.T) {
	tr := New(Config{RingSize: 4, Clock: fixedClock()})
	for i := 0; i < 10; i++ {
		sp := tr.Begin("s", Attrs{"i": i})
		sp.EndWith(nil)
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(evs))
	}
	// 20 events emitted; the ring holds 17..20.
	if evs[0].Seq != 17 || evs[3].Seq != 20 {
		t.Errorf("ring seq range [%d, %d], want [17, 20]", evs[0].Seq, evs[3].Seq)
	}
	if got := tr.Stats().Events; got != 20 {
		t.Errorf("Stats.Events = %d, want 20", got)
	}
}

func TestRootSampling(t *testing.T) {
	tr := New(Config{SampleEvery: 3, Clock: fixedClock()})
	recorded := 0
	for i := 0; i < 9; i++ {
		sp := tr.Begin("root", nil)
		if sp == nil {
			t.Fatal("Begin returned nil on a live tracer")
		}
		// Children and events of unsampled roots must be inert but usable.
		child := sp.Begin("child", nil)
		child.Event("ev", nil)
		child.EndWith(nil)
		sp.EndWith(nil)
		if sp.Recording() {
			recorded++
			if !child.Recording() {
				t.Error("child of sampled root not recording")
			}
		} else if child.Recording() {
			t.Error("child of unsampled root is recording")
		}
	}
	if recorded != 3 {
		t.Errorf("%d of 9 roots sampled, want 3", recorded)
	}
	st := tr.Stats()
	if st.RootSpans != 9 || st.SampledOut != 6 {
		t.Errorf("stats = %+v, want 9 roots, 6 sampled out", st)
	}
	// 3 sampled roots × (root B/E + child B/E + instant) = 15 events.
	if st.Events != 15 {
		t.Errorf("events = %d, want 15", st.Events)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tr := New(Config{Writer: &buf, Clock: fixedClock()})
	root := tr.Begin("session.round", Attrs{"seed": 1, "truth": []any{
		map[string]any{"id": 0, "dist_m": 3.5},
	}})
	root.Event("note", nil)
	root.EndWith(Attrs{"status": "ok"})
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d JSONL lines, want 3", len(lines))
	}
	for _, line := range lines {
		if !json.Valid([]byte(line)) {
			t.Errorf("invalid JSON line %q", line)
		}
	}
	evs2, err := ReadEvents(strings.NewReader(strings.Join(lines, "\n") + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(evs2) != 3 {
		t.Fatalf("ReadEvents: reparsed %d events, want 3", len(evs2))
	}
	if evs2[0].Name != "session.round" || evs2[0].Attrs["seed"] != float64(1) {
		t.Errorf("round-tripped begin = %+v", evs2[0])
	}
	truth, ok := evs2[0].Attrs["truth"].([]any)
	if !ok || len(truth) != 1 {
		t.Fatalf("truth attr did not round-trip: %#v", evs2[0].Attrs["truth"])
	}
	if evs2[2].Attrs["status"] != "ok" {
		t.Errorf("end attrs = %+v", evs2[2].Attrs)
	}
}

func TestReadEventsRejectsGarbage(t *testing.T) {
	if _, err := ReadEvents(strings.NewReader("{\"seq\":1}\nnot json\n")); err == nil {
		t.Fatal("malformed line accepted")
	}
}

func TestWriteChromeTrace(t *testing.T) {
	tr := New(Config{Clock: fixedClock()})
	root := tr.Begin("session.round", Attrs{"seed": 4})
	det := root.Begin("detect", nil)
	det.Event("detect.round", Attrs{"round": 0})
	det.EndWith(Attrs{"responses": 2})
	root.EndWith(nil)
	orphan := tr.Begin("sim.round", nil) // left open: truncated trace
	_ = orphan

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr.Events()); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	// 2 closed spans + 1 instant + 1 force-closed open span.
	if len(out.TraceEvents) != 4 {
		t.Fatalf("got %d chrome events, want 4: %v", len(out.TraceEvents), out.TraceEvents)
	}
	byName := map[string]map[string]any{}
	for _, ev := range out.TraceEvents {
		byName[ev["name"].(string)] = ev
	}
	if byName["detect"]["ph"] != "X" {
		t.Errorf("detect span phase = %v, want X", byName["detect"]["ph"])
	}
	// The detect slice inherits the root span's track and merges end attrs.
	if byName["detect"]["tid"] != byName["session.round"]["tid"] {
		t.Errorf("detect tid %v != session tid %v", byName["detect"]["tid"], byName["session.round"]["tid"])
	}
	args := byName["detect"]["args"].(map[string]any)
	if args["responses"] != float64(2) {
		t.Errorf("detect args = %v", args)
	}
	if byName["detect.round"]["ph"] != "i" {
		t.Errorf("instant phase = %v", byName["detect.round"]["ph"])
	}
	if byName["sim.round"]["ph"] != "X" {
		t.Errorf("orphan span phase = %v, want force-closed X", byName["sim.round"]["ph"])
	}
}

func TestConcurrentRecording(t *testing.T) {
	tr := New(Config{RingSize: 128})
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 50; i++ {
				sp := tr.Begin("w", Attrs{"g": g})
				sp.Event("e", nil)
				sp.EndWith(nil)
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if got := tr.Stats().Events; got != 8*50*3 {
		t.Errorf("events = %d, want %d", got, 8*50*3)
	}
	evs := tr.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("ring not in emission order at %d: %d -> %d", i, evs[i-1].Seq, evs[i].Seq)
		}
	}
}
