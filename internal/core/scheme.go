package core

import (
	"fmt"
	"math"
	"math/cmplx"
	"sort"

	"github.com/uwb-sim/concurrent-ranging/internal/dw1000"
)

// Measurement is one resolved per-responder ranging result.
type Measurement struct {
	// ID is the decoded responder ID, or -1 when the scheme runs without
	// identification (single slot, single shape — anonymous ranging).
	ID int
	// Slot is the response-position slot the response was classified into.
	Slot int
	// Shape is the identified pulse-shape (template) index.
	Shape int
	// Distance is the estimated initiator–responder distance in meters.
	Distance float64
	// Delay is the raw CIR peak delay in seconds relative to tap 0.
	Delay float64
	// Amplitude is the estimated complex response amplitude.
	Amplitude complex128
	// Anchor marks the response the SS-TWR distance was anchored to.
	Anchor bool
}

// Resolver turns detected CIR responses into per-responder distance
// measurements by combining the slot plan (Sect. VII/VIII), the pulse
// shape identification (Sect. V), and Eq. 4.
type Resolver struct {
	// Plan is the RPM × pulse-shaping layout in force.
	Plan SlotPlan
	// DirectPathMarginDB controls the per-responder selection when
	// several responses map to the same ID: the strongest wins unless an
	// earlier response is within this margin of it (then the earlier one
	// is taken as the direct path and the later as a reflection). Zero
	// selects DefaultDirectPathMarginDB. In line-of-sight conditions a
	// responder's direct path is both earliest and strongest, so the
	// margin only matters for attenuated-LOS cases.
	DirectPathMarginDB float64
}

// DefaultDirectPathMarginDB is the default same-ID selection margin.
const DefaultDirectPathMarginDB = 2.0

// anchorReferenceDelay is the CIR position the receiver placed the locked
// responder's first path at.
const anchorReferenceDelay = dw1000.ReferenceIndex * dw1000.SampleInterval

// Resolve maps responses to responders. anchorID is the responder whose
// payload was decoded (the receiver's lock source), and dTWR its Eq. 2
// distance. Of the responses mapping to the same responder ID one is
// kept (pickDirectPath): the anchor's response for its ID, else the
// strongest, unless an earlier one is within DirectPathMarginDB of it,
// which is then kept as the direct path. A responder's specular
// reflections arrive after its direct path, so this is how the combined
// scheme rejects strong multipath (Sect. VII).
func (r *Resolver) Resolve(responses []Response, anchorID int, dTWR float64) ([]Measurement, error) {
	if err := r.Plan.Validate(); err != nil {
		return nil, err
	}
	if len(responses) == 0 {
		return nil, fmt.Errorf("core: no responses to resolve")
	}
	anchorSlot, anchorShape, err := r.Plan.Assign(anchorID)
	if err != nil {
		return nil, fmt.Errorf("anchor: %w", err)
	}
	anchorIdx, err := r.findAnchor(responses, anchorShape)
	if err != nil {
		return nil, err
	}
	anchor := responses[anchorIdx]
	// The anchor's intra-slot delay: its raw delay minus its slot offset.
	anchorEff := anchor.Delay - r.Plan.ExtraDelay(anchorSlot)

	anonymous := r.Plan.Capacity() == 1
	out := make([]Measurement, 0, len(responses))
	byID := make(map[int]int, len(responses)) // ID -> index in out
	for i, resp := range responses {
		rel := resp.Delay - anchor.Delay + r.Plan.ExtraDelay(anchorSlot)
		slot := r.Plan.SlotOf(rel)
		eff := resp.Delay - r.Plan.ExtraDelay(slot)
		m := Measurement{
			ID:        -1,
			Slot:      slot,
			Shape:     resp.TemplateIndex,
			Distance:  ConcurrentDistance(dTWR, eff, anchorEff),
			Delay:     resp.Delay,
			Amplitude: resp.Amplitude,
			Anchor:    i == anchorIdx,
		}
		if anonymous {
			out = append(out, m)
			continue
		}
		id, err := r.Plan.IDFor(slot, resp.TemplateIndex)
		if err != nil {
			return nil, fmt.Errorf("response %d: %w", i, err)
		}
		m.ID = id
		if prev, seen := byID[id]; seen {
			out[prev] = r.pickDirectPath(out[prev], m)
			continue
		}
		byID[id] = len(out)
		out = append(out, m)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Delay < out[j].Delay })
	return out, nil
}

// pickDirectPath chooses between two responses mapped to the same
// responder ID. The anchor's response always wins: it is the response
// the receiver locked on, and every concurrent distance is measured
// against it. Otherwise the strongest wins, unless an earlier response
// is within the margin (then it is taken as the direct path and the
// stronger, later one as a specular reflection of it). Subtraction
// artifacts and diffuse multipath misclassified into this ID sit well
// below the real response and never shadow it under this rule.
func (r *Resolver) pickDirectPath(a, b Measurement) Measurement {
	switch {
	case a.Anchor:
		return a
	case b.Anchor:
		return b
	}
	margin := r.DirectPathMarginDB
	if margin == 0 {
		margin = DefaultDirectPathMarginDB
	}
	first, second := a, b
	if b.Delay < a.Delay {
		first, second = b, a
	}
	floor := math.Max(cmplx.Abs(first.Amplitude), cmplx.Abs(second.Amplitude)) *
		math.Pow(10, -margin/20)
	if cmplx.Abs(first.Amplitude) >= floor {
		return first
	}
	return second
}

// maxAnchorOffset caps findAnchor's window, seconds.
const maxAnchorOffset = 40e-9

// findAnchor locates the response belonging to the decoded responder: the
// peak nearest the receiver's reference position, within one slot width
// or maxAnchorOffset, whichever is smaller, preferring (but not requiring)
// the anchor's assigned pulse shape.
func (r *Resolver) findAnchor(responses []Response, anchorShape int) (int, error) {
	tol := math.Min(r.Plan.SlotWidth, maxAnchorOffset)
	best, bestShaped := -1, -1
	var bestDist, bestShapedDist float64
	for i, resp := range responses {
		d := math.Abs(resp.Delay - anchorReferenceDelay)
		if d > tol {
			continue
		}
		if best < 0 || d < bestDist {
			best, bestDist = i, d
		}
		if resp.TemplateIndex == anchorShape && (bestShaped < 0 || d < bestShapedDist) {
			bestShaped, bestShapedDist = i, d
		}
	}
	if bestShaped >= 0 {
		return bestShaped, nil
	}
	if best >= 0 {
		return best, nil
	}
	return 0, fmt.Errorf("core: no response within %g s of the reference position", tol)
}
