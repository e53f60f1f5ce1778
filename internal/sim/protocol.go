package sim

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"github.com/uwb-sim/concurrent-ranging/internal/airtime"
	"github.com/uwb-sim/concurrent-ranging/internal/core"
	"github.com/uwb-sim/concurrent-ranging/internal/dw1000"
	"github.com/uwb-sim/concurrent-ranging/internal/obs/trace"
	"github.com/uwb-sim/concurrent-ranging/internal/pulse"
)

// RoundConfig parameterizes one concurrent-ranging round (Fig. 3 right).
type RoundConfig struct {
	// ResponseDelay is Δ_RESP, the common response delay measured between
	// the INIT and RESP RMARKERs in each responder's clock. Zero selects
	// the paper's 290 µs.
	ResponseDelay float64
	// Plan is the RPM × pulse-shaping layout. The zero value selects the
	// anonymous single-slot single-shape scheme.
	Plan core.SlotPlan
	// Bank provides the pulse shapes; it must hold at least
	// Plan.NumShapes shapes. Nil selects a default bank of Plan.NumShapes
	// shapes at the accumulator rate.
	Bank *pulse.Bank
	// DisableTXQuantization models a next-generation transceiver without
	// the 8 ns delayed-TX truncation (Sect. III notes the limitation is
	// hardware-dependent). The default keeps the DW1000 behavior.
	DisableTXQuantization bool
	// Capture optionally models payload-decode failures under concurrent
	// interference. Nil keeps the paper's working assumption that the
	// locked responder's payload always decodes.
	Capture *CaptureModel
	// DriftCompensation lets the initiator correct the decoded
	// responder's turnaround span with its carrier-frequency-offset
	// estimate of that responder's clock rate — the standard SS-TWR
	// drift fix. Without it, crystal offsets bias d_TWR by
	// c·Δ_RESP·e/2 (~4.3 cm per ppm at the paper's 290 µs).
	DriftCompensation bool
}

func (c *RoundConfig) applyDefaults() error {
	if c.ResponseDelay == 0 {
		c.ResponseDelay = airtime.DefaultResponseDelay
	}
	if c.Plan == (core.SlotPlan{}) {
		c.Plan = core.SingleSlot(1)
	}
	if err := c.Plan.Validate(); err != nil {
		return err
	}
	if c.Bank == nil {
		bank, err := pulse.DefaultBank(dw1000.SampleInterval, c.Plan.NumShapes)
		if err != nil {
			return err
		}
		c.Bank = bank
	}
	if c.Bank.Len() < c.Plan.NumShapes {
		return fmt.Errorf("sim: bank has %d shapes, plan needs %d", c.Bank.Len(), c.Plan.NumShapes)
	}
	return nil
}

// RespPayload is the content of one RESP frame: the responder's INIT
// receive timestamp and its (pre-calculated) RESP transmit timestamp,
// both in its own clock (Fig. 3).
type RespPayload struct {
	// SourceID is the responder's application-level ID.
	SourceID int
	// RXInit is t_rx,i.
	RXInit dw1000.DeviceTime
	// TXResp is t_tx,i.
	TXResp dw1000.DeviceTime
}

// RoundResult is everything the initiator observes in one round, plus the
// simulation ground truth for evaluation.
type RoundResult struct {
	// InitTXTimestamp is the initiator's t_tx,init.
	InitTXTimestamp dw1000.DeviceTime
	// Reception holds the CIR and the RX timestamp t_rx,init.
	Reception *dw1000.Reception
	// DecodedID is the responder whose payload was decoded (the capture
	// of the earliest-arriving frame the receiver locked to).
	DecodedID int
	// Decoded is that payload. Valid only when DecodeOK is true.
	Decoded RespPayload
	// DecodeOK reports whether the locked payload survived the
	// interference of the other concurrent responses (always true without
	// a capture model).
	DecodeOK bool
	// LockSIRdB is the locked arrival's signal-to-interference ratio.
	LockSIRdB float64
	// ClockRatio is the initiator's CFO-based estimate of the decoded
	// responder's clock rate relative to its own (1 when drift
	// compensation is off).
	ClockRatio float64
	// Shapes records the pulse-shape index each responder transmitted
	// with, keyed by responder ID (ground truth).
	Shapes map[int]int
	// Slots records each responder's RPM slot (ground truth).
	Slots map[int]int
	// TrueDistance is the geometric initiator–responder distance, keyed
	// by responder ID (ground truth).
	TrueDistance map[int]float64
	// TXQuantizationError is the realized TX-instant error of each
	// responder caused by the 8 ns delayed-TX truncation, seconds
	// (ground truth; 0 when quantization is disabled).
	TXQuantizationError map[int]float64
}

// RunConcurrentRound executes one INIT broadcast plus the simultaneous
// RESP replies and returns the initiator's observations. The exchange runs
// as straight-line code on the network's virtual clock, which ends at the
// aggregated reception's lock instant. A failed round returns its first
// error; the RNG position it leaves behind is unspecified.
func (n *Network) RunConcurrentRound(initiator *Node, responders []*Node, cfg RoundConfig) (round *RoundResult, err error) {
	if initiator == nil {
		return nil, fmt.Errorf("sim: nil initiator")
	}
	if len(responders) == 0 {
		return nil, fmt.Errorf("sim: no responders")
	}
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	minDelay, err := airtime.MinResponseDelay(n.PHY(), airtime.InitPayloadBytes)
	if err != nil {
		return nil, err
	}
	if cfg.ResponseDelay < minDelay {
		return nil, fmt.Errorf("sim: response delay %g below the %g minimum (Sect. III)",
			cfg.ResponseDelay, minDelay)
	}
	if n.flightActive() {
		sp := n.beginSpan(trace.SpanSimRound, trace.Attrs{
			trace.AttrSeed:     n.seed,
			"responders":       len(responders),
			"response_delay_s": cfg.ResponseDelay,
			trace.AttrCapacity: cfg.Plan.Capacity(),
		})
		defer func() { n.endRoundSpan(sp, round, err) }()
	}
	tracing := n.trace != nil

	// INIT: one broadcast, received by every responder in slice order. A
	// responder reads only its lock and RX timestamp, so no CIR is built
	// (dw1000.Radio.Lock leaves the RNG where Receive would).
	t0 := n.now + 10e-6 // radio wake-up before the broadcast
	n.countFrame()      // one INIT broadcast on the air
	if tracing {
		n.emit(t0, initiator.Name, EventTXInit, "broadcast to %d responders", len(responders))
	}
	inits := make([]dw1000.Reception, len(responders))
	for i, resp := range responders {
		taps, err := n.env.Realize(initiator.Pos, resp.Pos, n.rng)
		if err != nil {
			return nil, fmt.Errorf("INIT to %s: %w", resp.Name, err)
		}
		inits[i], err = resp.Radio.Lock([]dw1000.Arrival{{
			SourceID: initiator.Name,
			TXTime:   t0,
			Shape:    initiator.Radio.Shape(),
			Taps:     taps,
		}})
		if err != nil {
			return nil, fmt.Errorf("INIT reception at %s: %w", resp.Name, err)
		}
		n.countReception(1)
	}

	// RESP: responders answer in the order they locked onto the INIT, ties
	// in slice order. Each programs its delayed TX Δ_RESP (+ its RPM slot
	// offset) after its INIT timestamp, at its own lock instant, with the
	// DW1000 8 ns truncation and its assigned pulse shape. arrivals[k]
	// carries payloads[k].
	order := make([]int, len(responders))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		return cmp.Compare(inits[a].LockedArrivalTime, inits[b].LockedArrivalTime)
	})
	result := &RoundResult{
		InitTXTimestamp:     initiator.Radio.Now(t0),
		Shapes:              make(map[int]int, len(responders)),
		Slots:               make(map[int]int, len(responders)),
		TrueDistance:        make(map[int]float64, len(responders)),
		TXQuantizationError: make(map[int]float64, len(responders)),
	}
	arrivals := make([]dw1000.Arrival, len(order))
	payloads := make([]RespPayload, len(order))
	var sent []TraceEvent // tx-resp events, collected only when tracing
	for k, i := range order {
		resp, rec := responders[i], &inits[i]
		now := rec.LockedArrivalTime
		if tracing {
			n.emit(now, resp.Name, EventRXInit, "timestamp %d", rec.Timestamp)
		}
		// Anonymous operation (single slot, single shape — the plain
		// Sect. IV scheme) does not constrain responder IDs; every
		// responder uses slot 0 and the only shape.
		slot, shapeIdx := 0, 0
		if cfg.Plan.Capacity() > 1 {
			if slot, shapeIdx, err = cfg.Plan.Assign(resp.ID); err != nil {
				return nil, fmt.Errorf("responder %s: %w", resp.Name, err)
			}
		}
		if err := resp.Radio.SetPGDelay(cfg.Bank.Shape(shapeIdx).Register); err != nil {
			return nil, fmt.Errorf("responder %s: %w", resp.Name, err)
		}
		requested := rec.Timestamp.Add(cfg.ResponseDelay + cfg.Plan.ExtraDelay(slot))
		actual := requested
		var simTX float64
		if cfg.DisableTXQuantization {
			simTX = resp.Radio.TXSimTime(now, requested)
		} else if actual, simTX, err = resp.Radio.ScheduleDelayedTX(now, requested); err != nil {
			return nil, fmt.Errorf("responder %s: %w", resp.Name, err)
		}
		taps, err := n.env.Realize(resp.Pos, initiator.Pos, n.rng)
		if err != nil {
			return nil, fmt.Errorf("RESP from %s: %w", resp.Name, err)
		}
		n.countFrame() // one RESP frame on the air
		arrivals[k] = dw1000.Arrival{
			SourceID: resp.Name,
			TXTime:   simTX,
			Shape:    resp.Radio.Shape(),
			Taps:     taps,
		}
		payloads[k] = RespPayload{SourceID: resp.ID, RXInit: rec.Timestamp, TXResp: actual}
		quant := requested.Sub(actual)
		result.Shapes[resp.ID] = shapeIdx
		result.Slots[resp.ID] = slot
		result.TXQuantizationError[resp.ID] = quant
		if tracing {
			sent = append(sent, TraceEvent{Time: simTX, Node: resp.Name, Kind: EventTXResponse,
				Detail: fmt.Sprintf("slot %d shape s%d, quantization -%.2f ns", slot, shapeIdx+1, quant*1e9)})
		}
	}

	// Aggregate: the initiator receives every RESP at once and decodes the
	// payload of the arrival it locked onto.
	rec, err := initiator.Radio.Receive(arrivals)
	if err != nil {
		return nil, fmt.Errorf("aggregated reception: %w", err)
	}
	n.countReception(len(arrivals))
	n.now = rec.LockedArrivalTime
	lock := slices.IndexFunc(arrivals, func(a dw1000.Arrival) bool { return a.SourceID == rec.LockedSourceID })
	result.Reception = rec
	result.DecodedID = payloads[lock].SourceID
	result.Decoded = payloads[lock]
	result.DecodeOK = cfg.Capture.Decode(arrivals, rec.LockedSourceID)
	n.countDecode(result.DecodeOK)
	result.LockSIRdB = SIRdB(arrivals, rec.LockedSourceID)
	if tracing {
		// The lock instant may precede later responders' transmissions (the
		// first path arrives while later slots are still on the air); the
		// reception events sit at the later of the two to keep the
		// timeline monotone.
		slices.SortStableFunc(sent, func(a, b TraceEvent) int { return cmp.Compare(a.Time, b.Time) })
		for _, e := range sent {
			n.trace(e)
		}
		at := math.Max(rec.LockedArrivalTime, sent[len(sent)-1].Time)
		n.emit(at, initiator.Name, EventRXAggregate,
			"locked to %s among %d arrivals (first path %.3f µs)",
			rec.LockedSourceID, len(arrivals), rec.LockedArrivalTime*1e6)
		n.emit(at, initiator.Name, EventDecode,
			"payload of %s: ok=%v (SIR %.1f dB)", rec.LockedSourceID, result.DecodeOK, result.LockSIRdB)
	}
	result.ClockRatio = 1
	if cfg.DriftCompensation {
		result.ClockRatio = initiator.Radio.EstimateClockRatio(responders[order[lock]].Radio.Clock())
	}
	for _, resp := range responders {
		result.TrueDistance[resp.ID] = Distance(initiator, resp)
	}
	return result, nil
}

// TWRDistance computes the Eq. 2 SS-TWR distance to the decoded responder
// from the round's timestamps — the d_TWR anchor of the concurrent scheme.
// When the round ran with drift compensation, the responder's turnaround
// is rescaled by the estimated clock ratio.
func (r *RoundResult) TWRDistance() float64 {
	ratio := r.ClockRatio
	if ratio == 0 {
		ratio = 1
	}
	return core.TWRTimestampsDriftCompensated(r.InitTXTimestamp, r.Reception.Timestamp,
		r.Decoded.RXInit, r.Decoded.TXResp, ratio)
}

// RunTWRExchange performs one classical single-sided two-way ranging
// exchange (Fig. 3 left) between two nodes and returns the estimated
// distance. The responder keeps its currently configured pulse shape when
// bank is nil; otherwise it transmits with the bank's first shape.
func (n *Network) RunTWRExchange(initiator, responder *Node, responseDelay float64, bank *pulse.Bank) (float64, error) {
	if bank == nil {
		var err error
		bank, err = pulse.NewBank(dw1000.SampleInterval, responder.Radio.Config().PGDelay)
		if err != nil {
			return 0, err
		}
	}
	result, err := n.RunConcurrentRound(initiator, []*Node{responder}, RoundConfig{
		ResponseDelay: responseDelay,
		Plan:          core.SingleSlot(1),
		Bank:          bank,
	})
	if err != nil {
		return 0, err
	}
	return result.TWRDistance(), nil
}
