// Package trace is the repository's detection flight recorder: a sampled
// span/event tracer that records *why* each search-and-subtract detection
// accepted or rejected every candidate path, with enough protocol context
// (trial seed, responder ground truth, RPM slot, pulse-shape ID) that a
// single failed round of a million-trial campaign can be replayed and
// explained after the fact.
//
// The same contract as the obs.Recorder metrics layer applies, extended to
// spans:
//
//   - A nil *Tracer means "disabled". Every method is nil-safe, so
//     instrumented components hold a *Tracer (or a *Span handed to them)
//     and pay exactly one pointer check per recording site when tracing is
//     off — and zero allocations, because callers guard attribute
//     construction behind Span.Recording.
//   - Tracing is strictly observational: nothing the tracer returns can
//     influence the traced computation, so results are bit-identical with
//     and without a tracer attached.
//   - A Tracer is safe for concurrent use; parallel campaign workers all
//     record into one sink.
//
// Events stream to an optional JSONL writer and accumulate in a bounded
// ring buffer that keeps the most recent events (the "flight recorder"
// part: on a million-trial campaign the ring holds the tail, the JSONL
// stream holds everything that was sampled). Root-span sampling
// (Config.SampleEvery) bounds trace volume: an unsampled root span and
// every descendant record nothing.
package trace

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
	"time"

	"github.com/uwb-sim/concurrent-ranging/internal/obs"
)

// Metric names the tracer mirrors into an attached Recorder (SetMetrics),
// so live dashboards can watch span/event volume — a per-name breakdown
// of what the flight recorder is seeing — without draining the ring.
const (
	// MetricSpans counts spans opened (labeled by span name when the
	// Recorder supports labeled series).
	MetricSpans = "trace.spans"
	// MetricEvents counts instant events recorded (labeled by event
	// name).
	MetricEvents = "trace.events"
	// MetricSampledOut counts root spans dropped by sampling.
	MetricSampledOut = "trace.sampled_out"
)

// Attrs carries the structured payload of a span or event. Values must be
// JSON-encodable; numbers round-trip through float64 on the analyzer side.
type Attrs map[string]any

// Phases of an Event, following the Chrome trace-event convention.
const (
	// PhaseBegin opens a span.
	PhaseBegin = "B"
	// PhaseEnd closes a span.
	PhaseEnd = "E"
	// PhaseInstant is a point event inside a span.
	PhaseInstant = "I"
)

// Event is one flight-recorder record. The JSONL stream is one Event per
// line; map keys inside Attrs are JSON-encoded in sorted order, so a trace
// of a deterministic workload is deterministic up to the TS timestamps.
type Event struct {
	// Seq is the tracer-wide emission sequence number (starting at 1).
	Seq uint64 `json:"seq"`
	// TS is the event time in seconds since the tracer was created
	// (monotonic; the only wall-clock-derived field).
	TS float64 `json:"ts"`
	// Span is the ID of the owning span.
	Span uint64 `json:"span,omitempty"`
	// Parent is the enclosing span's ID, set on PhaseBegin events only
	// (zero for root spans).
	Parent uint64 `json:"parent,omitempty"`
	// Phase is PhaseBegin, PhaseEnd, or PhaseInstant.
	Phase string `json:"ph"`
	// Name is the span kind (begin/end) or event kind (instant); the
	// canonical names live in schema.go.
	Name string `json:"name"`
	// Attrs is the structured payload.
	Attrs Attrs `json:"attrs,omitempty"`
}

// DefaultRingSize is the bounded in-memory event buffer size.
const DefaultRingSize = 4096

// Config parameterizes a Tracer.
type Config struct {
	// Writer, when non-nil, receives every recorded event as one JSON
	// line. The tracer buffers; call Flush before reading the sink.
	Writer io.Writer
	// RingSize bounds the in-memory buffer of most-recent events.
	// 0 selects DefaultRingSize; negative disables the ring entirely.
	RingSize int
	// SampleEvery keeps one of every N root spans (and everything nested
	// under them); the rest record nothing. 0 or 1 keeps all. Sampling is
	// deterministic (a modular counter, not a random draw), so equal-seed
	// runs produce identical traces.
	SampleEvery int
	// Clock overrides the event timestamp source with a function
	// returning seconds; nil uses monotonic time since New. Tests use it
	// to pin timestamps.
	Clock func() float64
}

// Tracer records spans and events. Use New; the zero value is not usable
// (but a nil *Tracer is the canonical "disabled" state).
type Tracer struct {
	mu      sync.Mutex
	bw      *bufio.Writer
	enc     *json.Encoder
	ring    []Event
	head    int // next write position
	count   int // valid events in ring
	seq     uint64
	spanSeq uint64
	roots   uint64
	sample  int
	clock   func() float64
	emitted uint64
	skipped uint64 // root spans dropped by sampling
	werr    error

	// Metric mirror (SetMetrics). When the Recorder supports labeled
	// series the tracer resolves one counter child per span/event name
	// and caches it here; otherwise it falls back to the unlabeled
	// family totals. All access is under mu.
	rec        obs.Recorder
	spanVec    *obs.CounterVec
	eventVec   *obs.CounterVec
	sampledOut *obs.Counter
	spanCtrs   map[string]*obs.Counter
	eventCtrs  map[string]*obs.Counter
}

// SetMetrics mirrors the tracer's span/event volume into rec as the
// trace.* counter families, so a live dashboard can watch what the
// flight recorder is seeing without draining the ring. When rec is an
// obs.VecSource (the Registry is), spans and events are labeled by name;
// otherwise only the unlabeled totals are counted. Passing nil detaches
// the mirror. Mirroring is observational only: sampling decisions and
// recorded events are identical with or without it.
func (t *Tracer) SetMetrics(rec obs.Recorder) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rec = rec
	t.spanVec, t.eventVec, t.sampledOut = nil, nil, nil
	t.spanCtrs, t.eventCtrs = nil, nil
	if rec == nil {
		return
	}
	if vs, ok := rec.(obs.VecSource); ok {
		t.spanVec = vs.CounterVec(MetricSpans, "name")
		t.eventVec = vs.CounterVec(MetricEvents, "name")
	}
	if reg, ok := rec.(*obs.Registry); ok {
		t.sampledOut = reg.Counter(MetricSampledOut)
	}
	t.spanCtrs = make(map[string]*obs.Counter)
	t.eventCtrs = make(map[string]*obs.Counter)
}

// countSpan bumps the span mirror counter. Callers hold t.mu.
func (t *Tracer) countSpan(name string) {
	if t.rec == nil {
		return
	}
	if t.spanVec != nil {
		ctr := t.spanCtrs[name]
		if ctr == nil {
			ctr = t.spanVec.With(name) //lint:allow hotlabel span names are unbounded, so the handle is resolved once per name into spanCtrs, a cache guarded by t.mu
			t.spanCtrs[name] = ctr
		}
		ctr.Inc()
		return
	}
	t.rec.Count(MetricSpans, 1)
}

// countEvent bumps the event mirror counter. Callers hold t.mu.
func (t *Tracer) countEvent(name string) {
	if t.rec == nil {
		return
	}
	if t.eventVec != nil {
		ctr := t.eventCtrs[name]
		if ctr == nil {
			ctr = t.eventVec.With(name) //lint:allow hotlabel event names are unbounded, so the handle is resolved once per name into eventCtrs, a cache guarded by t.mu
			t.eventCtrs[name] = ctr
		}
		ctr.Inc()
		return
	}
	t.rec.Count(MetricEvents, 1)
}

// countSampledOut bumps the sampled-out mirror counter. Callers hold
// t.mu.
func (t *Tracer) countSampledOut() {
	if t.rec == nil {
		return
	}
	if t.sampledOut != nil {
		t.sampledOut.Inc()
		return
	}
	t.rec.Count(MetricSampledOut, 1)
}

// New builds a tracer. See Config for the knobs.
func New(cfg Config) *Tracer {
	t := &Tracer{sample: cfg.SampleEvery, clock: cfg.Clock}
	if t.sample < 1 {
		t.sample = 1
	}
	if t.clock == nil {
		start := time.Now()
		t.clock = func() float64 { return time.Since(start).Seconds() }
	}
	size := cfg.RingSize
	if size == 0 {
		size = DefaultRingSize
	}
	if size > 0 {
		t.ring = make([]Event, size)
	}
	if cfg.Writer != nil {
		t.bw = bufio.NewWriter(cfg.Writer)
		t.enc = json.NewEncoder(t.bw)
	}
	return t
}

// Span is a handle to an open span. A nil *Span, and any span under an
// unsampled root, records nothing; both are safe to use. Spans are not
// goroutine-safe — hand each goroutine its own child span.
type Span struct {
	t  *Tracer // nil marks the shared unsampled sentinel
	id uint64
}

// unsampled is the inert span returned under an unsampled root, so call
// sites can nest unconditionally without re-checking sampling.
var unsampled = &Span{}

// Begin opens a root span. Sampling applies here and only here: one of
// every SampleEvery root spans records; the others return an inert span.
// A nil tracer returns nil (also inert).
func (t *Tracer) Begin(name string, attrs Attrs) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.roots++
	if t.sample > 1 && (t.roots-1)%uint64(t.sample) != 0 {
		t.skipped++
		t.countSampledOut()
		return unsampled
	}
	t.spanSeq++
	id := t.spanSeq
	t.emit(Event{Span: id, Phase: PhaseBegin, Name: name, Attrs: attrs})
	return &Span{t: t, id: id}
}

// Recording reports whether events recorded on this span are kept. Callers
// use it to skip building attribute maps when tracing is off or the root
// was not sampled — that guard is what keeps disabled tracing
// allocation-free.
func (s *Span) Recording() bool { return s != nil && s.t != nil }

// ID returns the span's ID, or 0 for an inert span.
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// Begin opens a child span. Children of inert spans are inert.
func (s *Span) Begin(name string, attrs Attrs) *Span {
	if s == nil {
		return nil
	}
	if s.t == nil {
		return unsampled
	}
	t := s.t
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spanSeq++
	id := t.spanSeq
	t.emit(Event{Span: id, Parent: s.id, Phase: PhaseBegin, Name: name, Attrs: attrs})
	return &Span{t: t, id: id}
}

// Event records an instant event inside the span.
func (s *Span) Event(name string, attrs Attrs) {
	if s == nil || s.t == nil {
		return
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	s.t.emit(Event{Span: s.id, Phase: PhaseInstant, Name: name, Attrs: attrs})
}

// EndWith closes the span with result attributes (outcome, error, counts).
func (s *Span) EndWith(attrs Attrs) {
	if s == nil || s.t == nil {
		return
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	s.t.emit(Event{Span: s.id, Phase: PhaseEnd, Name: "", Attrs: attrs})
}

// emit stamps and stores one event. Callers hold t.mu.
func (t *Tracer) emit(ev Event) {
	t.seq++
	ev.Seq = t.seq
	ev.TS = t.clock()
	t.emitted++
	switch ev.Phase {
	case PhaseBegin:
		t.countSpan(ev.Name)
	case PhaseInstant:
		t.countEvent(ev.Name)
	}
	if len(t.ring) > 0 {
		t.ring[t.head] = ev
		t.head = (t.head + 1) % len(t.ring)
		if t.count < len(t.ring) {
			t.count++
		}
	}
	if t.enc != nil && t.werr == nil {
		t.werr = t.enc.Encode(ev)
	}
}

// Events returns a copy of the ring buffer — the most recent events, in
// emission order.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, t.count)
	start := t.head - t.count
	for i := 0; i < t.count; i++ {
		out = append(out, t.ring[(start+i+len(t.ring))%len(t.ring)])
	}
	return out
}

// Stats summarizes what the tracer has done so far.
type Stats struct {
	// Events is the number of events recorded (ring + stream).
	Events uint64
	// RootSpans is the number of root spans started (sampled or not).
	RootSpans uint64
	// SampledOut is the number of root spans dropped by sampling.
	SampledOut uint64
}

// Stats returns the tracer's counters.
func (t *Tracer) Stats() Stats {
	if t == nil {
		return Stats{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return Stats{Events: t.emitted, RootSpans: t.roots, SampledOut: t.skipped}
}

// Flush drains the JSONL writer's buffer and returns the first write error
// encountered by any emission so far. Call it before reading the sink (and
// before process exit).
func (t *Tracer) Flush() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.bw != nil {
		if err := t.bw.Flush(); err != nil && t.werr == nil {
			t.werr = err
		}
	}
	return t.werr
}

// ReadEvents parses a JSONL trace stream written through Config.Writer.
// Empty lines are skipped; a malformed line is an error.
func ReadEvents(r io.Reader) ([]Event, error) {
	dec := json.NewDecoder(r)
	var out []Event
	for {
		var ev Event
		if err := dec.Decode(&ev); err != nil {
			if err == io.EOF {
				return out, nil
			}
			return nil, err
		}
		out = append(out, ev)
	}
}
