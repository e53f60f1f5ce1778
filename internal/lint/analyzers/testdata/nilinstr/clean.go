package fixture

import (
	"github.com/uwb-sim/concurrent-ranging/internal/obs/trace"
)

// guarded wraps the call in the canonical nil check.
func (e *engine) guarded() {
	if e.rec != nil {
		e.rec.Count("rounds", 1)
	}
}

// earlyReturn guards with a terminating nil branch: the non-nil fact
// flows to the rest of the function.
func (e *engine) earlyReturn() {
	if e.rec == nil {
		return
	}
	e.rec.Count("rounds", 1)
	if e.load != nil {
		e.load.Set(0.5)
	}
}

// recordingGuard uses Span.Recording, the tracer's sanctioned liveness
// predicate, as the dominating check.
func recordingGuard(sp *trace.Span) {
	if !sp.Recording() {
		return
	}
	sp.Event("peak", trace.Attrs{"idx": 3})
}

// liveness calls the nil-safe predicates themselves unguarded — that is
// the idiom, not a violation.
func liveness(sp *trace.Span) (bool, uint64) {
	return sp.Recording(), sp.ID()
}

// combinedGuard establishes two facts through one && condition.
func (e *engine) combinedGuard() {
	if e.rec != nil && e.rounds != nil {
		e.rec.Count("rounds", 1)
		e.rounds.Inc()
	}
}

// localSpan is the repository's span idiom: Begin under a tracer guard,
// then establish the span's own liveness via Recording before using it.
func (e *engine) localSpan() {
	if e.tracer == nil {
		return
	}
	sp := e.tracer.Begin("detect", nil)
	if !sp.Recording() {
		return
	}
	defer sp.EndWith(nil)
	sp.Event("start", nil)
}
