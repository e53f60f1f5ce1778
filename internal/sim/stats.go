package sim

import "github.com/uwb-sim/concurrent-ranging/internal/obs"

// Metric names the simulator records through its Recorder.
const (
	// MetricFramesOnAir counts frames handed to the channel (one INIT
	// per round plus one RESP per responder).
	MetricFramesOnAir = "sim.frames_on_air"
	// MetricReceptions counts successful radio receptions, including
	// the initiator's aggregated one.
	MetricReceptions = "sim.receptions"
	// MetricCollisions counts aggregated receptions in which two or more
	// response frames overlapped on the air — the concurrent-ranging
	// regime the detector has to untangle.
	MetricCollisions = "sim.collisions"
	// MetricDecodeFailures counts rounds whose locked payload did not
	// survive the concurrent interference (capture model).
	MetricDecodeFailures = "sim.decode_failures"
	// MetricReceptionsByKind is the labeled companion of
	// MetricReceptions: receptions counted per arrival regime
	// ({kind="single"} vs {kind="concurrent"}, the ≥ 2-overlap case).
	// Recorded only when the Recorder supports labeled series
	// (obs.VecSource).
	MetricReceptionsByKind = "sim.receptions_by_kind"
)

// SetRecorder counts every subsequent frame, reception, collision and
// decode failure into rec (nil disables counting). The same
// no-op-when-nil, observation-only contract as core.Detector.SetRecorder
// applies: a recorder never changes simulation results.
func (n *Network) SetRecorder(rec obs.Recorder) {
	n.rec = rec
	n.recSingle, n.recConcurrent = nil, nil
	if vs, ok := rec.(obs.VecSource); ok {
		vec := vs.CounterVec(MetricReceptionsByKind, "kind")
		n.recSingle = vec.With("single")
		n.recConcurrent = vec.With("concurrent")
	}
}

func (n *Network) countFrame() {
	if n.rec != nil {
		n.rec.Count(MetricFramesOnAir, 1)
	}
}

func (n *Network) countReception(arrivals int) {
	if n.rec == nil {
		return
	}
	n.rec.Count(MetricReceptions, 1)
	kind := n.recSingle
	if arrivals >= 2 {
		n.rec.Count(MetricCollisions, 1)
		kind = n.recConcurrent
	}
	if kind != nil {
		kind.Inc()
	}
}

func (n *Network) countDecode(ok bool) {
	if !ok && n.rec != nil {
		n.rec.Count(MetricDecodeFailures, 1)
	}
}
