package sim

import "fmt"

// TraceEvent is one observable step of a simulated protocol exchange,
// delivered to the callback installed with Network.SetTracer for
// debugging and the crsim -trace timeline.
type TraceEvent struct {
	// Time is the virtual time of the event in seconds.
	Time float64
	// Node names the acting node.
	Node string
	// Kind classifies the event (EventTXInit, EventRXInit, …).
	Kind string
	// Detail is a human-readable elaboration.
	Detail string
}

// Trace event kinds.
const (
	EventTXInit      = "tx-init"
	EventRXInit      = "rx-init"
	EventTXResponse  = "tx-resp"
	EventRXAggregate = "rx-aggregate"
	EventDecode      = "decode"
)

// String formats the event as a timeline line.
func (e TraceEvent) String() string {
	return fmt.Sprintf("%12.3f µs  %-10s %-12s %s", e.Time*1e6, e.Node, e.Kind, e.Detail)
}

// SetTracer installs a callback that receives every protocol event. A nil
// tracer disables tracing. The callback runs synchronously on the
// simulation goroutine and must not call back into the network.
//
// Tracing is observational: emitting an event schedules nothing and
// never touches the clock or the RNG, so rounds return bit-identical
// results, and leave the clock at the same instant, with or without a
// tracer.
func (n *Network) SetTracer(fn func(TraceEvent)) { n.trace = fn }

// emit sends an event to the tracer, if any.
func (n *Network) emit(time float64, node, kind, detailFormat string, args ...any) {
	if n.trace == nil {
		return
	}
	n.trace(TraceEvent{
		Time:   time,
		Node:   node,
		Kind:   kind,
		Detail: fmt.Sprintf(detailFormat, args...),
	})
}
