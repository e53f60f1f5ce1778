package dw1000

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand/v2"

	"github.com/uwb-sim/concurrent-ranging/internal/airtime"
	"github.com/uwb-sim/concurrent-ranging/internal/channel"
	"github.com/uwb-sim/concurrent-ranging/internal/pulse"
)

// JitterModel describes the receive-timestamp error of the leading-edge
// detector: zero-mean Gaussian whose standard deviation grows as the pulse
// bandwidth shrinks (wider pulses have a softer rising edge, Sect. II).
type JitterModel struct {
	// Sigma0 is the timestamp standard deviation at RefBandwidth, seconds.
	Sigma0 float64
	// RefBandwidth is the bandwidth Sigma0 is specified at, Hz.
	RefBandwidth float64
	// Exponent is the bandwidth scaling power: σ(B) = Sigma0·(Ref/B)^Exp.
	Exponent float64
}

// DefaultJitter is every radio's timestamp error model, calibrated so
// SS-TWR at the nominal 900 MHz bandwidth reproduces the paper's
// σ ≈ 2.3 cm (Sect. V) and the mild degradation the wider shapes show
// (σ₃ ≈ 2.8 cm).
func DefaultJitter() JitterModel {
	return JitterModel{Sigma0: 107e-12, RefBandwidth: pulse.NominalBandwidth, Exponent: 0.22}
}

// Sigma returns the timestamp standard deviation for a pulse of bandwidth
// b (Hz).
func (j JitterModel) Sigma(b float64) float64 {
	if b <= 0 || j.RefBandwidth <= 0 {
		return j.Sigma0
	}
	return j.Sigma0 * math.Pow(j.RefBandwidth/b, j.Exponent)
}

// DefaultNoiseRMS is the per-tap complex noise RMS of the accumulator
// after preamble accumulation, calibrated so a 10 m response still shows
// the clean peaks of the paper's Fig. 4 CIRs (~25 dB peak SNR).
const DefaultNoiseRMS = 1.4e-5

// Config parameterizes a radio instance.
type Config struct {
	// PHY is the IEEE 802.15.4 UWB configuration (rate, PRF, PSR).
	PHY airtime.Config
	// PGDelay is the TC_PGDELAY pulse-shaping register value.
	PGDelay byte
	// NoiseRMS is the per-tap complex accumulator noise RMS.
	// Zero selects DefaultNoiseRMS; negative disables noise.
	NoiseRMS float64
	// Clock is the node's crystal model.
	Clock Clock
}

// Radio is one simulated DW1000.
type Radio struct {
	id    string
	cfg   Config
	shape pulse.Shape
	rng   *rand.Rand
}

// New builds a radio. It rejects a non-finite clock offset, clock phase
// or noise RMS, and a clock offset of −1e6 ppm or below (a clock that
// stops or runs backwards). The RNG drives noise and jitter and must not be
// shared across goroutines.
func New(id string, cfg Config, rng *rand.Rand) (*Radio, error) {
	if id == "" {
		return nil, fmt.Errorf("dw1000: empty radio id")
	}
	if rng == nil {
		return nil, fmt.Errorf("dw1000: nil RNG")
	}
	if err := cfg.PHY.Validate(); err != nil {
		return nil, fmt.Errorf("radio %s: %w", id, err)
	}
	for _, v := range []float64{cfg.Clock.OffsetPPM, cfg.Clock.Phase, cfg.NoiseRMS} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("radio %s: non-finite clock offset %g ppm, phase %g s or noise RMS %g",
				id, cfg.Clock.OffsetPPM, cfg.Clock.Phase, cfg.NoiseRMS)
		}
	}
	if cfg.Clock.OffsetPPM <= -1e6 {
		return nil, fmt.Errorf("radio %s: clock offset %g ppm stops or reverses the clock", id, cfg.Clock.OffsetPPM)
	}
	if cfg.PGDelay == 0 {
		cfg.PGDelay = pulse.DefaultRegister
	}
	shape, err := pulse.ForRegister(cfg.PGDelay)
	if err != nil {
		return nil, fmt.Errorf("radio %s: %w", id, err)
	}
	if cfg.NoiseRMS == 0 {
		cfg.NoiseRMS = DefaultNoiseRMS
	}
	if cfg.NoiseRMS < 0 {
		cfg.NoiseRMS = 0
	}
	return &Radio{id: id, cfg: cfg, shape: shape, rng: rng}, nil
}

// ID returns the radio identifier.
func (r *Radio) ID() string { return r.id }

// Config returns the radio configuration.
func (r *Radio) Config() Config { return r.cfg }

// Shape returns the TX pulse shape selected by TC_PGDELAY.
func (r *Radio) Shape() pulse.Shape { return r.shape }

// SetPGDelay reprograms the pulse-shaping register.
func (r *Radio) SetPGDelay(reg byte) error {
	shape, err := pulse.ForRegister(reg)
	if err != nil {
		return fmt.Errorf("radio %s: %w", r.id, err)
	}
	r.cfg.PGDelay = reg
	r.shape = shape
	return nil
}

// Clock returns the node's crystal model.
func (r *Radio) Clock() Clock { return r.cfg.Clock }

// Now returns the radio's device timestamp at the given simulation time.
func (r *Radio) Now(simTime float64) DeviceTime { return r.cfg.Clock.Timestamp(simTime) }

// ErrDelayedTXInPast is returned when a delayed transmission is scheduled
// at a device time that has already passed.
type ErrDelayedTXInPast struct {
	Requested, Now DeviceTime
}

func (e *ErrDelayedTXInPast) Error() string {
	return fmt.Sprintf("dw1000: delayed TX time %d is in the past (now %d)", e.Requested, e.Now)
}

// ScheduleDelayedTX programs a delayed transmission for the requested
// device time. The hardware ignores the low 9 bits, so the realized TX
// instant is quantized to ~8 ns and up to 8 ns earlier than requested
// (Sect. III "Limited TX timestamp resolution"). It returns the realized
// device time and the corresponding absolute simulation time of the
// RMARKER leaving the antenna.
func (r *Radio) ScheduleDelayedTX(nowSim float64, requested DeviceTime) (DeviceTime, float64, error) {
	actual := TruncateDelayedTX(requested)
	now := r.Now(nowSim)
	if actual.Sub(now) <= 0 {
		return 0, 0, &ErrDelayedTXInPast{Requested: requested, Now: now}
	}
	return actual, r.TXSimTime(nowSim, actual), nil
}

// TXSimTime returns the absolute simulation time at which a frame sent at
// device time tx leaves the antenna. The 40-bit counter wraps every
// ~17.2 s, so tx is read in the counter epoch nearest the radio's own
// reading at nowSim: a transmission programmed less than half a wrap
// ahead maps to its true instant at any simulation time. In the first
// epoch the correction adds exactly zero.
func (r *Radio) TXSimTime(nowSim float64, tx DeviceTime) float64 {
	dev := tx.Seconds()
	epochs := math.Round((r.cfg.Clock.DeviceSeconds(nowSim) - dev) / counterSeconds)
	return r.cfg.Clock.SimSeconds(dev + epochs*counterSeconds)
}

// RXTimestamp returns the device timestamp for a frame whose first path
// arrived at the given simulation time, carried by a pulse of the given
// bandwidth: truth + leading-edge jitter (DefaultJitter), quantized to
// 15.65 ps device units. Antennas are taken as calibrated: no antenna
// delay enters a TX or RX timestamp.
func (r *Radio) RXTimestamp(simArrival, bandwidth float64) DeviceTime {
	jitter := r.rng.NormFloat64() * DefaultJitter().Sigma(bandwidth)
	return r.cfg.Clock.Timestamp(simArrival + jitter)
}

// Arrival is one concurrent transmission reaching this receiver: the
// transmitter's realized TX instant, its pulse shape, and the channel
// realization between the two nodes.
type Arrival struct {
	// SourceID identifies the transmitter.
	SourceID string
	// TXTime is the absolute simulation time the RMARKER left the antenna.
	TXTime float64
	// Shape is the transmitter's pulse shape.
	Shape pulse.Shape
	// Taps is the channel realization toward this receiver.
	Taps []channel.Tap
}

// firstPathTime returns the arrival time of the first plausible path: the
// earliest tap within ldeRatio of the strongest tap amplitude, mimicking
// the DW1000 leading-edge detection that ignores noise-level precursors.
const ldeRatio = 0.25

func (a *Arrival) firstPathTime() float64 {
	var maxAmp float64
	for _, t := range a.Taps {
		if v := cmplx.Abs(t.Gain); v > maxAmp {
			maxAmp = v
		}
	}
	th := maxAmp * ldeRatio
	for _, t := range a.Taps {
		if cmplx.Abs(t.Gain) >= th {
			return a.TXTime + t.Delay
		}
	}
	return a.TXTime
}

// Reception is the receiver-side outcome of one (possibly concurrent)
// frame reception.
type Reception struct {
	// CIR is the estimated channel impulse response (nil from Lock).
	CIR *CIR
	// LockedSourceID is the transmitter the receiver synchronized to (the
	// earliest first path); its payload is the one that gets decoded.
	LockedSourceID string
	// LockedArrivalTime is that source's true first-path arrival time.
	LockedArrivalTime float64
	// Timestamp is the reported RX timestamp (jittered, quantized).
	Timestamp DeviceTime
}

// Receive superposes all concurrent arrivals into the accumulator, locks
// onto the earliest first path, and produces the CIR plus the RX
// timestamp. It returns an error when there is nothing to receive.
func (r *Radio) Receive(arrivals []Arrival) (*Reception, error) {
	lockIdx, lockTime, err := r.lock(arrivals)
	if err != nil {
		return nil, err
	}
	origin := lockTime - ReferenceIndex*SampleInterval
	cir := &CIR{
		Taps:           make([]complex128, CIRLength),
		SampleInterval: SampleInterval,
		Origin:         origin,
		NoiseRMS:       r.cfg.NoiseRMS,
	}
	renderArrivals(cir.Taps, arrivals, origin)
	if sigma := r.cfg.NoiseRMS / math.Sqrt2; sigma > 0 {
		for i := range cir.Taps {
			cir.Taps[i] += complex(r.rng.NormFloat64()*sigma, r.rng.NormFloat64()*sigma)
		}
	}
	locked := &arrivals[lockIdx]
	return &Reception{
		CIR:               cir,
		LockedSourceID:    locked.SourceID,
		LockedArrivalTime: lockTime,
		Timestamp:         r.RXTimestamp(lockTime, locked.Shape.Bandwidth),
	}, nil
}

// renderArrivals adds every tap of every arrival into taps, the
// accumulator window whose sample 0 is at time origin, as its shape's
// unit-energy pulse. RenderNormInto clips each pulse to the window, so a
// tap outside it still contributes the part of its pulse that reaches in.
func renderArrivals(taps []complex128, arrivals []Arrival, origin float64) {
	for i := range arrivals {
		a := &arrivals[i]
		norm := a.Shape.NormConstant(SampleInterval) // one per arrival, not per tap
		for _, tap := range a.Taps {
			delay := (a.TXTime + tap.Delay - origin) / SampleInterval
			a.Shape.RenderNormInto(taps, tap.Gain, delay, SampleInterval, norm)
		}
	}
}

// Lock is Receive for a caller that reads no CIR: it locks onto the
// earliest first path and returns the same source, arrival time and RX
// timestamp, with a nil CIR. Rendering the CIR draws nothing from the RNG,
// and Lock draws and discards the accumulator noise Receive would add, so
// the radio's RNG stream, and every later draw, is the one Receive leaves.
func (r *Radio) Lock(arrivals []Arrival) (Reception, error) {
	lockIdx, lockTime, err := r.lock(arrivals)
	if err != nil {
		return Reception{}, err
	}
	if sigma := r.cfg.NoiseRMS / math.Sqrt2; sigma > 0 {
		for range 2 * CIRLength {
			r.rng.NormFloat64()
		}
	}
	locked := &arrivals[lockIdx]
	return Reception{
		LockedSourceID:    locked.SourceID,
		LockedArrivalTime: lockTime,
		Timestamp:         r.RXTimestamp(lockTime, locked.Shape.Bandwidth),
	}, nil
}

// lock returns the index and first-path time of the arrival the receiver
// synchronizes to: the earliest first path, the first of equal ones.
func (r *Radio) lock(arrivals []Arrival) (int, float64, error) {
	if len(arrivals) == 0 {
		return 0, 0, fmt.Errorf("radio %s: no arrivals to receive", r.id)
	}
	lockIdx := 0
	lockTime := math.Inf(1)
	for i := range arrivals {
		if len(arrivals[i].Taps) == 0 {
			return 0, 0, fmt.Errorf("radio %s: arrival from %s has no channel taps",
				r.id, arrivals[i].SourceID)
		}
		if t := arrivals[i].firstPathTime(); t < lockTime {
			lockTime = t
			lockIdx = i
		}
	}
	return lockIdx, lockTime, nil
}

// CFOEstimateSigma is the standard deviation of the clock-rate-ratio
// estimate the receiver derives from the carrier frequency offset of one
// frame (dimensionless; ~0.02 ppm, typical for a DW1000 carrier
// integrator reading over a full frame).
const CFOEstimateSigma = 2e-8

// EstimateClockRatio returns this radio's noisy estimate of a remote
// clock's rate relative to its own, as obtained from the carrier
// frequency offset of a received frame.
func (r *Radio) EstimateClockRatio(remote Clock) float64 {
	return remote.RateRatio(r.cfg.Clock) + r.rng.NormFloat64()*CFOEstimateSigma
}
