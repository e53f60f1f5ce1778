package ranging

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"

	"github.com/uwb-sim/concurrent-ranging/internal/core"
	"github.com/uwb-sim/concurrent-ranging/internal/geom"
	"github.com/uwb-sim/concurrent-ranging/internal/locate"
	"github.com/uwb-sim/concurrent-ranging/internal/obs"
	"github.com/uwb-sim/concurrent-ranging/internal/obs/trace"
	"github.com/uwb-sim/concurrent-ranging/internal/sim"
)

// Metric names Session.Run records through its Recorder. The expected /
// found pair is the detection success-rate numerator and denominator
// reportcheck's quality gate compares across runs.
const (
	// MetricRespondersExpected counts responders a Run was asked to
	// range (recorded on every Run, success or failure).
	MetricRespondersExpected = "ranging.responders_expected"
	// MetricRespondersFound counts resolved measurements carrying ground
	// truth — responses detected and attributed to a real responder.
	MetricRespondersFound = "ranging.responders_found"
	// MetricRoundErrors counts Run calls that returned an error.
	MetricRoundErrors = "ranging.round_errors"
	// MetricRounds counts Run calls per outcome ({outcome="ok"} or
	// {outcome="error"}). Recorded only when the Recorder supports
	// labeled series (obs.VecSource).
	MetricRounds = "ranging.rounds"
)

// Measurement is one per-responder ranging outcome.
type Measurement struct {
	// ResponderID is the decoded responder identity, or -1 in anonymous
	// mode (single slot, single shape).
	ResponderID int
	// Distance is the estimated distance in meters.
	Distance float64
	// TrueDistance is the simulation ground truth in meters, valid only
	// when HasTruth is set.
	TrueDistance float64
	// HasTruth reports whether TrueDistance carries actual ground truth.
	// Without it a responder co-located with the initiator (true distance
	// exactly 0) would be indistinguishable from an anonymous measurement
	// that matched no truth.
	HasTruth bool
	// Slot and Shape are the decoded scheme coordinates.
	Slot, Shape int
	// Amplitude is the detected response amplitude (linear).
	Amplitude float64
	// Anchor marks the SS-TWR anchor responder.
	Anchor bool
}

// Error returns the signed ranging error in meters (0 when the ground
// truth is unknown, i.e. anonymous measurements that matched no truth).
// Session.Run sets HasTruth on every matched measurement; a hand-built
// Measurement without HasTruth keeps the legacy convention that a non-zero
// TrueDistance implies known truth.
func (m Measurement) Error() float64 {
	if !m.HasTruth && m.TrueDistance == 0 {
		return 0
	}
	return m.Distance - m.TrueDistance
}

// Result is the outcome of one concurrent-ranging round.
type Result struct {
	// Measurements holds one entry per resolved response, ordered by
	// arrival.
	Measurements []Measurement
	// AnchorDistance is the Eq. 2 SS-TWR distance to the decoded
	// responder.
	AnchorDistance float64
	// AnchorID is the decoded (locked) responder.
	AnchorID int
	// CIR is the estimated channel impulse response magnitude the round
	// observed (one value per accumulator tap).
	CIR []float64
	// CIRSampleInterval is the CIR tap spacing in seconds.
	CIRSampleInterval float64
	// MessagesOnAir is the number of frames the round used (1 INIT +
	// N responses — the paper's N-messages scaling).
	MessagesOnAir int
}

// ErrDecodeFailed reports that the locked responder's payload did not
// survive the interference of the other concurrent responses (only
// possible with Config.ModelDecodeFailures); without the decoded
// timestamps there is no d_TWR anchor and the round yields no distances.
var ErrDecodeFailed = errors.New("ranging: concurrent payload decode failed")

// ErrNonFinitePosition reports a NaN or infinite coordinate of the
// initiator, a responder or an obstacle endpoint, a coordinate beyond
// ±1e6 m (see maxCoordinate), or a non-finite obstacle loss.
// Scenario.Build and Session.Run wrap it; match it with errors.Is.
var ErrNonFinitePosition = errors.New("ranging: non-finite or out-of-bounds position")

// maxCoordinate bounds every coordinate, in metres. A finite coordinate
// can still break the physics two layers down: an initiator at x = 1e308
// m makes the channel yield NaN taps, which Detect then rejects as
// core.ErrNonFinite. Within ±1e6 m, a thousand kilometres and four orders
// of magnitude past any UWB link, distances stay below 3e6 m, so their
// squares are far from overflow, float64 still resolves them to 1e-9 m
// against the centimetre ranging error, and the ≤ 10 ms flight time stays
// well inside the DW1000's 17 s timestamp wrap. Such a node is simply out
// of range: the round fails with "no responses detected".
const maxCoordinate = 1e6

// ErrInvalidConfig reports a scenario Config or responder set that
// Scenario.Build rejects: a MaxRange, ClockOffsetPPM, ResponseDelay or
// NumShapes out of its documented domain, or a responder ID that is
// duplicated or outside the scheme capacity. Match it with errors.Is.
var ErrInvalidConfig = errors.New("ranging: invalid config")

// Run executes one concurrent-ranging round: the initiator broadcasts
// INIT, all responders answer simultaneously after Δ_RESP (+ their RPM
// slot offsets), and the initiator extracts every responder's distance
// from the single aggregated reception.
func (s *Session) Run() (result *Result, err error) {
	seq := s.rounds
	s.rounds++
	defer func() { s.recordRun(result, err) }()
	if err := s.checkPositions(); err != nil {
		return nil, err
	}
	if s.flight != nil {
		sp := s.flight.Begin(trace.SpanSessionRound, s.runBeginAttrs(seq))
		s.net.SetTraceParent(sp)
		s.detector.SetTraceParent(sp)
		defer func() {
			s.net.SetTraceParent(nil)
			s.detector.SetTraceParent(nil)
			s.endSessionSpan(sp, result, err)
		}()
	}
	round, err := s.net.RunConcurrentRound(s.initiator, s.resps, s.roundCfg)
	if err != nil {
		return nil, err
	}
	if !round.DecodeOK {
		return nil, fmt.Errorf("%w (lock SIR %.1f dB)", ErrDecodeFailed, round.LockSIRdB)
	}
	cir := round.Reception.CIR
	responses, err := s.detector.Detect(cir.Taps, cir.EstimateNoiseRMS())
	if err != nil {
		return nil, err
	}
	if len(responses) == 0 {
		return nil, fmt.Errorf("ranging: no responses detected in the CIR")
	}
	dTWR := round.TWRDistance()
	anchorID := round.DecodedID
	if s.plan.Capacity() == 1 {
		anchorID = 0
	}
	ms, err := s.resolver.Resolve(responses, anchorID, dTWR)
	if err != nil {
		return nil, err
	}
	result = &Result{
		Measurements:      make([]Measurement, 0, len(ms)),
		AnchorDistance:    dTWR,
		AnchorID:          round.DecodedID,
		CIR:               cir.Magnitude(),
		CIRSampleInterval: cir.SampleInterval,
		MessagesOnAir:     1 + len(s.resps),
	}
	for _, m := range ms {
		out := Measurement{
			ResponderID: m.ID,
			Distance:    m.Distance,
			Slot:        m.Slot,
			Shape:       m.Shape,
			Amplitude:   cmplx.Abs(m.Amplitude),
			Anchor:      m.Anchor,
		}
		if truth, ok := round.TrueDistance[m.ID]; ok {
			out.TrueDistance = truth
			out.HasTruth = true
		} else if m.ID == -1 && m.Anchor {
			if truth, ok := round.TrueDistance[round.DecodedID]; ok {
				out.TrueDistance = truth
				out.HasTruth = true
			}
		}
		result.Measurements = append(result.Measurements, out)
	}
	return result, nil
}

// runBeginAttrs builds the session.round begin attributes: the scenario
// seed, the 0-based round counter, the scheme capacity, and the
// ground-truth slot/shape/distance of every responder.
func (s *Session) runBeginAttrs(seq uint64) trace.Attrs {
	truth := make([]any, 0, len(s.resps))
	for _, node := range s.resps {
		slot, shape := 0, 0
		if s.plan.Capacity() > 1 {
			slot, shape, _ = s.plan.Assign(node.ID)
		}
		truth = append(truth, map[string]any{
			trace.AttrID:    node.ID,
			trace.AttrSlot:  slot,
			trace.AttrShape: shape,
			trace.AttrDistM: sim.Distance(s.initiator, node),
		})
	}
	return trace.Attrs{
		trace.AttrSeed:     s.seed,
		trace.AttrRound:    seq,
		trace.AttrCapacity: s.plan.Capacity(),
		trace.AttrTruth:    truth,
	}
}

// endSessionSpan closes a session.round span with the round's outcome.
func (s *Session) endSessionSpan(sp *trace.Span, result *Result, err error) {
	if !sp.Recording() {
		return
	}
	if err != nil {
		sp.EndWith(trace.Attrs{trace.AttrStatus: "error", trace.AttrError: err.Error()})
		return
	}
	ms := make([]any, 0, len(result.Measurements))
	for _, m := range result.Measurements {
		mm := map[string]any{
			trace.AttrID:       m.ResponderID,
			trace.AttrSlot:     m.Slot,
			trace.AttrShape:    m.Shape,
			trace.AttrDistM:    m.Distance,
			trace.AttrHasTruth: m.HasTruth,
			trace.AttrAnchor:   m.Anchor,
		}
		if m.HasTruth {
			mm[trace.AttrTrueM] = m.TrueDistance
		}
		ms = append(ms, mm)
	}
	sp.EndWith(trace.Attrs{
		trace.AttrStatus:       "ok",
		"anchor_id":            result.AnchorID,
		"d_twr_m":              result.AnchorDistance,
		trace.AttrMeasurements: ms,
	})
}

// recordRun emits the per-Run quality counters; free when no recorder is
// attached.
func (s *Session) recordRun(result *Result, err error) {
	if s.rec == nil {
		return
	}
	s.rec.Count(MetricRespondersExpected, int64(len(s.resps)))
	if err != nil {
		s.rec.Count(MetricRoundErrors, 1)
		if s.roundsErr != nil {
			s.roundsErr.Inc()
		}
		return
	}
	if s.roundsOK != nil {
		s.roundsOK.Inc()
	}
	var found int64
	for _, m := range result.Measurements {
		if m.HasTruth {
			found++
		}
	}
	s.rec.Count(MetricRespondersFound, found)
}

// RunTWR performs one classical SS-TWR exchange with the given responder
// and returns the estimated distance — the baseline the paper's Sect. V
// precision experiment uses.
func (s *Session) RunTWR(responderID int) (float64, error) {
	node, err := s.responderNode(responderID)
	if err != nil {
		return 0, err
	}
	return s.net.RunTWRExchange(s.initiator, node, s.ResponseDelay(), s.bank)
}

func (s *Session) responderNode(id int) (*sim.Node, error) {
	for _, n := range s.resps {
		if n.ID == id {
			return n, nil
		}
	}
	return nil, fmt.Errorf("ranging: unknown responder ID %d", id)
}

// checkPositions rejects an initiator or responder coordinate that is
// not finite or lies beyond ±maxCoordinate. Build checks the scenario's
// placement; Run checks again because MoveInitiator and MoveResponder can
// move a node after Build.
func (s *Session) checkPositions() error {
	if p := s.initiator.Pos; !inBounds(p.X, p.Y) {
		return fmt.Errorf("%w: initiator at (%g, %g), bound ±%g m", ErrNonFinitePosition, p.X, p.Y, maxCoordinate)
	}
	for _, n := range s.resps {
		if p := n.Pos; !inBounds(p.X, p.Y) {
			return fmt.Errorf("%w: responder %d at (%g, %g), bound ±%g m", ErrNonFinitePosition, n.ID, p.X, p.Y, maxCoordinate)
		}
	}
	return nil
}

// inBounds reports whether every coordinate lies within ±maxCoordinate,
// which NaN never does.
func inBounds(vs ...float64) bool {
	for _, v := range vs {
		if !(math.Abs(v) <= maxCoordinate) {
			return false
		}
	}
	return true
}

// finite reports whether every value is neither NaN nor infinite.
func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// MoveInitiator repositions the initiator for subsequent rounds, so a
// mobile node can be tracked across Run calls without rebuilding the
// session (each round realizes a fresh channel for the new geometry).
func (s *Session) MoveInitiator(x, y float64) {
	s.initiator.Pos = geom.Point{X: x, Y: y}
}

// MoveResponder repositions a responder for subsequent rounds.
func (s *Session) MoveResponder(id int, x, y float64) error {
	node, err := s.responderNode(id)
	if err != nil {
		return err
	}
	node.Pos = geom.Point{X: x, Y: y}
	return nil
}

// TrueDistance returns the geometric distance between the initiator and a
// responder.
func (s *Session) TrueDistance(responderID int) (float64, error) {
	node, err := s.responderNode(responderID)
	if err != nil {
		return 0, err
	}
	return sim.Distance(s.initiator, node), nil
}

// Position is a 2-D point in meters.
type Position struct {
	X, Y float64
}

// LocateFrom solves the initiator-side localization problem the paper
// names as future work: given the responder (anchor) positions and the
// measurements of one round, estimate where the measuring node is.
func LocateFrom(measurements []Measurement, anchors map[int]Position) (Position, error) {
	obs := rangeObservations(measurements, anchors)
	res, err := locate.Solve(obs, locate.Config{})
	if err != nil {
		return Position{}, err
	}
	return Position{X: res.Position.X, Y: res.Position.Y}, nil
}

// LocateRobust is LocateFrom with Tukey-biweight outlier rejection: a
// range inflated by non-line-of-sight propagation is down-weighted out of
// the fix instead of dragging it. Requires at least four matched anchors.
func LocateRobust(measurements []Measurement, anchors map[int]Position) (Position, error) {
	obs := rangeObservations(measurements, anchors)
	res, err := locate.SolveRobust(obs)
	if err != nil {
		return Position{}, err
	}
	return Position{X: res.Position.X, Y: res.Position.Y}, nil
}

func rangeObservations(measurements []Measurement, anchors map[int]Position) []locate.RangeObservation {
	obs := make([]locate.RangeObservation, 0, len(measurements))
	for _, m := range measurements {
		a, ok := anchors[m.ResponderID]
		if !ok {
			continue
		}
		obs = append(obs, locate.RangeObservation{
			Anchor:   geom.Point{X: a.X, Y: a.Y},
			Distance: m.Distance,
		})
	}
	return obs
}

// ShapeRegister returns the TC_PGDELAY register value backing pulse-shape
// index i of the session's bank, for diagnostics and documentation.
func (s *Session) ShapeRegister(i int) (byte, error) {
	if i < 0 || i >= s.bank.Len() {
		return 0, fmt.Errorf("ranging: shape index %d outside bank of %d", i, s.bank.Len())
	}
	return s.bank.Shape(i).Register, nil
}

// MaxSupportedResponders reports the theoretical capacity of the combined
// scheme for a maximum range (meters) and number of pulse shapes — the
// paper's N_max = N_RPM · N_PS (Sect. VIII).
func MaxSupportedResponders(maxRange float64, numShapes int) (int, error) {
	plan, err := core.NewSlotPlan(maxRange, numShapes)
	if err != nil {
		return 0, err
	}
	return plan.Capacity(), nil
}

// NumPulseShapes is the number of usable DW1000 pulse shapes (Sect. V):
// the TC_PGDELAY register values from 0x93 (the spectral-mask lower limit)
// through 0xFE.
const NumPulseShapes = 108

// TraceEvent is one observable protocol step (frame transmissions,
// receptions, lock and decode decisions) of the simulated exchanges.
type TraceEvent struct {
	// TimeSeconds is the virtual time of the event.
	TimeSeconds float64
	// Node names the acting node.
	Node string
	// Kind classifies the event: tx-init, rx-init, tx-resp, rx-aggregate,
	// decode.
	Kind string
	// Detail is a human-readable elaboration.
	Detail string
}

// String formats the event as a timeline line.
func (e TraceEvent) String() string {
	return fmt.Sprintf("%12.3f µs  %-10s %-12s %s", e.TimeSeconds*1e6, e.Node, e.Kind, e.Detail)
}

// SetTracer installs a callback receiving every protocol event of
// subsequent Run/RunTWR calls; nil disables tracing. Like SetRecorder it
// is observation-only: every Run returns a bit-identical result with or
// without a tracer.
func (s *Session) SetTracer(fn func(TraceEvent)) {
	if fn == nil {
		s.net.SetTracer(nil)
		return
	}
	s.net.SetTracer(func(e sim.TraceEvent) {
		fn(TraceEvent{TimeSeconds: e.Time, Node: e.Node, Kind: e.Kind, Detail: e.Detail})
	})
}

// SetRecorder attaches a metrics recorder to the session's detector and
// simulated network; nil detaches both. Recording is observation-only —
// results are bit-identical with or without a recorder — and free when
// disabled (the hot paths test a single nil pointer). obs.Registry
// satisfies the interface and is safe for concurrent use across sessions.
func (s *Session) SetRecorder(rec obs.Recorder) {
	s.rec = rec
	s.roundsOK, s.roundsErr = nil, nil
	if vs, ok := rec.(obs.VecSource); ok {
		vec := vs.CounterVec(MetricRounds, "outcome")
		s.roundsOK = vec.With("ok")
		s.roundsErr = vec.With("error")
	}
	s.detector.SetRecorder(rec)
	s.net.SetRecorder(rec)
}

// SetFlightRecorder attaches the decision-level flight recorder
// (internal/obs/trace) to the session, its network, and its detector;
// nil detaches all three. Every subsequent Run becomes a session.round
// span — carrying the scenario seed and the per-responder ground truth
// (RPM slot, pulse-shape index, true distance) — with the sim round and
// each detection's per-round search-and-subtract decisions nested under
// it. Like SetRecorder this is observation-only and free when disabled.
func (s *Session) SetFlightRecorder(tr *trace.Tracer) {
	s.flight = tr
	s.net.SetFlightRecorder(tr)
	s.detector.SetFlightRecorder(tr)
}
