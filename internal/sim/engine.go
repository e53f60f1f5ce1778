// Package sim simulates a UWB network: nodes that combine a position with
// a DW1000 radio model, and the ranging protocols of the paper — scheduled
// single-sided two-way ranging (Fig. 3 left) and concurrent ranging with
// response position modulation and pulse shaping (Fig. 3 right,
// Sects. III–VIII). A Network runs each round as straight-line code on a
// virtual clock. For city-scale swarms the package also provides a
// spatially sharded parallel discrete-event engine (ShardedEngine) that
// is bit-identical to the single-heap SequentialRunner at any worker
// count.
package sim

import (
	"fmt"
)

// event is a scheduled simulation action. The payload type is generic so
// the sequential engine (plain func()) and the sharded engine's per-shard
// heaps (handlers taking a scheduler context) share one queue
// implementation.
type event[F any] struct {
	at  float64
	seq uint64 // tie-breaker: FIFO among equal times, keeps runs deterministic
	fn  F
}

// eventQueue is a binary min-heap of events ordered by (at, seq), stored
// by value in one backing slice: pushing moves events within the slice
// instead of allocating a node per Schedule, so steady-state scheduling
// allocates nothing once the slice has grown to the high-water mark.
type eventQueue[F any] struct {
	ev []event[F]
}

// Len returns the number of queued events.
func (q *eventQueue[F]) Len() int { return len(q.ev) }

// peekAt returns the earliest queued time; call only when Len() > 0.
func (q *eventQueue[F]) peekAt() float64 { return q.ev[0].at }

func (q *eventQueue[F]) less(i, j int) bool {
	if q.ev[i].at != q.ev[j].at {
		return q.ev[i].at < q.ev[j].at
	}
	return q.ev[i].seq < q.ev[j].seq
}

// push inserts an event and restores the heap order.
func (q *eventQueue[F]) push(e event[F]) {
	q.ev = append(q.ev, e)
	i := len(q.ev) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.ev[i], q.ev[parent] = q.ev[parent], q.ev[i]
		i = parent
	}
}

// pop removes and returns the earliest event; call only when Len() > 0.
// The vacated slot is zeroed so the queue does not retain the popped
// closure.
func (q *eventQueue[F]) pop() event[F] {
	top := q.ev[0]
	n := len(q.ev) - 1
	q.ev[0] = q.ev[n]
	var zero event[F]
	q.ev[n] = zero
	q.ev = q.ev[:n]
	// Sift the relocated tail element down to its place.
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && q.less(l, smallest) {
			smallest = l
		}
		if r < n && q.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		q.ev[i], q.ev[smallest] = q.ev[smallest], q.ev[i]
		i = smallest
	}
	return top
}

// engine is a deterministic discrete-event executor with a virtual clock:
// the single global heap SequentialRunner runs on. The zero value is
// ready to use.
type engine struct {
	now float64
	seq uint64
	q   eventQueue[func()]
}

// Now returns the current virtual time in seconds.
func (e *engine) Now() float64 { return e.now }

// Schedule runs fn at the given absolute virtual time. Scheduling in the
// past (before Now) is rejected.
func (e *engine) Schedule(at float64, fn func()) error {
	if at < e.now {
		return fmt.Errorf("sim: schedule at %g before now %g", at, e.now)
	}
	if fn == nil {
		return fmt.Errorf("sim: nil event function")
	}
	e.seq++
	e.q.push(event[func()]{at: at, seq: e.seq, fn: fn})
	return nil
}

// RunUntil executes events up to and including virtual time deadline and
// leaves later events queued. Events scheduled exactly at the deadline run
// (in scheduling order among equal times), including any they themselves
// schedule at the deadline. The clock ends at the deadline or the last
// executed event, whichever is later; a later RunUntil call with the same
// deadline resumes without re-advancing the clock.
func (e *engine) RunUntil(deadline float64) int {
	n := 0
	for e.q.Len() > 0 && e.q.peekAt() <= deadline {
		ev := e.q.pop()
		e.now = ev.at
		ev.fn()
		n++
	}
	if e.now < deadline {
		e.now = deadline
	}
	return n
}

// Pending returns the number of queued events.
func (e *engine) Pending() int { return e.q.Len() }
