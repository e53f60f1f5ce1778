package dw1000

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"github.com/uwb-sim/concurrent-ranging/internal/airtime"
	"github.com/uwb-sim/concurrent-ranging/internal/channel"
	"github.com/uwb-sim/concurrent-ranging/internal/dsp"
	"github.com/uwb-sim/concurrent-ranging/internal/pulse"
)

func testRadio(t *testing.T, id string, seed uint64) *Radio {
	t.Helper()
	r, err := New(id, Config{PHY: airtime.PaperConfig()}, rand.New(rand.NewPCG(seed, 1)))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestNewRejectsBadClockAndNoise(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name   string
		clock  Clock
		noise  float64
		reject bool
	}{
		{"NaN offset", Clock{OffsetPPM: nan}, 0, true},
		{"+Inf offset", Clock{OffsetPPM: inf}, 0, true},
		{"-Inf offset", Clock{OffsetPPM: -inf}, 0, true},
		{"offset stops the clock", Clock{OffsetPPM: -1e6}, 0, true},
		{"offset reverses the clock", Clock{OffsetPPM: -2e6}, 0, true},
		{"NaN phase", Clock{Phase: nan}, 0, true},
		{"-Inf phase", Clock{Phase: -inf}, 0, true},
		{"NaN noise", Clock{}, nan, true},
		{"+Inf noise", Clock{}, inf, true},
		{"typical crystal", Clock{OffsetPPM: -20, Phase: 0.5}, 0, false},
		{"fast clock", Clock{OffsetPPM: 1e6}, 0, false},
		{"negative noise clamps to silence", Clock{}, -1, false},
	}
	for _, tc := range cases {
		cfg := Config{PHY: airtime.PaperConfig(), Clock: tc.clock, NoiseRMS: tc.noise}
		_, err := New("a", cfg, rand.New(rand.NewPCG(1, 1)))
		if tc.reject && err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
		if !tc.reject && err != nil {
			t.Errorf("%s: rejected: %v", tc.name, err)
		}
	}
}

func TestNewValidation(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	if _, err := New("", Config{PHY: airtime.PaperConfig()}, rng); err == nil {
		t.Error("empty id accepted")
	}
	if _, err := New("a", Config{PHY: airtime.PaperConfig()}, nil); err == nil {
		t.Error("nil RNG accepted")
	}
	if _, err := New("a", Config{}, rng); err == nil {
		t.Error("invalid PHY accepted")
	}
	if _, err := New("a", Config{PHY: airtime.PaperConfig(), PGDelay: 0x10}, rng); err == nil {
		t.Error("invalid PGDelay accepted")
	}
	r, err := New("a", Config{PHY: airtime.PaperConfig()}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if r.Config().PGDelay != pulse.DefaultRegister {
		t.Error("PGDelay default not applied")
	}
	if r.Config().NoiseRMS != DefaultNoiseRMS {
		t.Error("noise default not applied")
	}
	if r.Config().Jitter != DefaultJitter() {
		t.Error("jitter default not applied")
	}
}

func TestSetPGDelay(t *testing.T) {
	r := testRadio(t, "a", 2)
	if err := r.SetPGDelay(pulse.RegisterS3); err != nil {
		t.Fatal(err)
	}
	if r.Shape().Register != pulse.RegisterS3 {
		t.Fatal("shape not updated")
	}
	if err := r.SetPGDelay(0x01); err == nil {
		t.Fatal("invalid register accepted")
	}
}

func TestScheduleDelayedTXTruncates(t *testing.T) {
	r := testRadio(t, "a", 3)
	now := 1e-3
	requested := r.Now(now).Add(290e-6)
	actual, simTX, err := r.ScheduleDelayedTX(now, requested)
	if err != nil {
		t.Fatal(err)
	}
	if actual&0x1FF != 0 {
		t.Fatal("realized TX time not truncated")
	}
	early := requested.Sub(actual)
	if early < 0 || early >= DelayedTXGranularity {
		t.Fatalf("truncation offset %g outside [0, 8 ns)", early)
	}
	// The realized sim time reflects the truncation (ideal clock).
	wantSim := now + 290e-6 - early
	if math.Abs(simTX-wantSim) > 1e-12 {
		t.Fatalf("simTX %g, want %g", simTX, wantSim)
	}
}

// TestScheduleDelayedTXAcrossCounterWrap programs transmissions whose
// device time wraps the 40-bit counter, or that start epochs past it, and
// requires each to leave the antenna its delay after now; in the first
// epoch the mapping must match the plain conversion bit for bit.
func TestScheduleDelayedTXAcrossCounterWrap(t *testing.T) {
	const delay = 290e-6
	r, err := New("a", Config{PHY: airtime.PaperConfig(), Clock: Clock{OffsetPPM: 7, Phase: 0.777}},
		rand.New(rand.NewPCG(1, 1)))
	if err != nil {
		t.Fatal(err)
	}
	wrapAt := r.Clock().SimSeconds(counterSeconds) // the first wrap, in simulation time
	for _, now := range []float64{1e-3, wrapAt - delay/2, wrapAt + 1e-3, 16.5, 40, 1e4} {
		requested := r.Now(now).Add(delay)
		actual, simTX, err := r.ScheduleDelayedTX(now, requested)
		if err != nil {
			t.Fatalf("now %g: %v", now, err)
		}
		early := requested.Sub(actual)
		want := now + (delay-early)/r.Clock().rate()
		if math.Abs(simTX-want) > 2*DTU {
			t.Errorf("now %g: TX at %.12f s, want %.12f s", now, simTX, want)
		}
		if got := r.Now(simTX); math.Abs(got.Sub(actual)) > DTU {
			t.Errorf("now %g: the radio reads %d at its TX instant, programmed %d", now, got, actual)
		}
		if ideal := r.TXSimTime(now, requested); math.Abs(ideal-(now+delay/r.Clock().rate())) > 2*DTU {
			t.Errorf("now %g: untruncated TX at %.12f s", now, ideal)
		}
	}
	requested := r.Now(1e-3).Add(delay)
	_, simTX, err := r.ScheduleDelayedTX(1e-3, requested)
	if err != nil {
		t.Fatal(err)
	}
	if plain := r.Clock().SimSeconds(TruncateDelayedTX(requested).Seconds()); simTX != plain {
		t.Fatalf("first-epoch TX at %v, plain conversion gives %v", simTX, plain)
	}
}

// FuzzScheduleDelayedTX programs a delayed TX at an arbitrary time, clock
// phase, crystal offset and delay: the transmission must be accepted,
// leave the antenna after now and within the delay at the node's clock
// rate, and the radio must read the programmed time (to one DTU) at that
// instant, wherever the 40-bit counter wrapped in between.
func FuzzScheduleDelayedTX(f *testing.F) {
	f.Add(1e-3, 0.0, 0.0, 290e-6)
	f.Add(16.5, 0.777, 3.0, 290e-6)
	f.Add(17.2074, 0.0, -20.0, 10e-3)
	f.Add(9999.99, 0.999, 19.99, 1e-6)
	// fold maps any finite v into [lo, hi), leaving values inside alone.
	fold := func(v, lo, hi float64) float64 {
		if v >= lo && v < hi {
			return v
		}
		return lo + math.Mod(math.Abs(v), hi-lo)
	}
	f.Fuzz(func(t *testing.T, now, phase, ppm, delay float64) {
		for _, v := range []float64{now, phase, ppm, delay} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip()
			}
		}
		now, phase = fold(now, 0, 1e4), fold(phase, 0, 1)
		ppm, delay = fold(ppm, -20, 20), fold(delay, 1e-6, 10e-3)
		r, err := New("a", Config{PHY: airtime.PaperConfig(), Clock: Clock{OffsetPPM: ppm, Phase: phase}},
			rand.New(rand.NewPCG(1, 1)))
		if err != nil {
			t.Fatal(err)
		}
		actual, simTX, err := r.ScheduleDelayedTX(now, r.Now(now).Add(delay))
		if err != nil {
			t.Fatalf("delay %g at now %g rejected: %v", delay, now, err)
		}
		if !(simTX > now && simTX-now <= delay/r.Clock().rate()+2*DTU) {
			t.Fatalf("TX %.12f s after now %g, want within (0, %g]", simTX-now, now, delay/r.Clock().rate())
		}
		if got := r.Now(simTX); math.Abs(got.Sub(actual)) > DTU {
			t.Fatalf("the radio reads %d at its TX instant, programmed %d", got, actual)
		}
	})
}

func TestScheduleDelayedTXInPast(t *testing.T) {
	r := testRadio(t, "a", 4)
	now := 1e-3
	requested := r.Now(now).Add(-1e-6)
	_, _, err := r.ScheduleDelayedTX(now, requested)
	var pastErr *ErrDelayedTXInPast
	if !errors.As(err, &pastErr) {
		t.Fatalf("want ErrDelayedTXInPast, got %v", err)
	}
}

func TestRXTimestampJitterStatistics(t *testing.T) {
	r := testRadio(t, "a", 5)
	arrival := 2e-3
	var stats dsp.Running
	for i := 0; i < 4000; i++ {
		ts := r.RXTimestamp(arrival, pulse.NominalBandwidth)
		stats.Add(ts.Seconds() - arrival)
	}
	sigma := r.Config().Jitter.Sigma(pulse.NominalBandwidth)
	if got := stats.StdDev(); got < 0.9*sigma || got > 1.1*sigma {
		t.Fatalf("timestamp jitter std %g, want ~%g", got, sigma)
	}
	if math.Abs(stats.Mean()) > sigma/10 {
		t.Fatalf("timestamp bias %g", stats.Mean())
	}
}

func TestJitterGrowsForWiderPulses(t *testing.T) {
	j := DefaultJitter()
	s1, _ := pulse.ForRegister(pulse.RegisterS1)
	s3, _ := pulse.ForRegister(pulse.RegisterS3)
	if j.Sigma(s3.Bandwidth) <= j.Sigma(s1.Bandwidth) {
		t.Fatal("wider pulse must have larger timestamp jitter")
	}
	// Degenerate bandwidth falls back to Sigma0.
	if j.Sigma(0) != j.Sigma0 {
		t.Fatal("zero bandwidth fallback broken")
	}
}

// lineTaps builds a single-tap LOS channel at distance d meters.
func lineTaps(d float64) []channel.Tap {
	return []channel.Tap{{
		Delay: d / channel.SpeedOfLight,
		Gain:  complex(channel.FreeSpacePathLoss(channel.Channel7CenterFrequency).AmplitudeGain(d), 0),
		Order: 0,
	}}
}

func TestReceiveSingleArrival(t *testing.T) {
	r := testRadio(t, "rx", 6)
	shape, _ := pulse.ForRegister(pulse.RegisterS1)
	rec, err := r.Receive([]Arrival{{
		SourceID: "tx1",
		TXTime:   1e-3,
		Shape:    shape,
		Taps:     lineTaps(5),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if rec.LockedSourceID != "tx1" {
		t.Fatalf("locked to %q", rec.LockedSourceID)
	}
	wantArrival := 1e-3 + 5/channel.SpeedOfLight
	if math.Abs(rec.LockedArrivalTime-wantArrival) > 1e-15 {
		t.Fatalf("lock time %g, want %g", rec.LockedArrivalTime, wantArrival)
	}
	// The first path must sit at the reference index.
	mag := rec.CIR.Magnitude()
	idx := dsp.ArgMax(mag)
	if idx != ReferenceIndex {
		t.Fatalf("peak at %d, want reference %d", idx, ReferenceIndex)
	}
	// Timestamp near the true arrival.
	if math.Abs(rec.Timestamp.Seconds()-wantArrival) > 1e-9 {
		t.Fatalf("timestamp error %g", rec.Timestamp.Seconds()-wantArrival)
	}
}

func TestReceiveLocksOnEarliestArrival(t *testing.T) {
	r := testRadio(t, "rx", 7)
	shape, _ := pulse.ForRegister(pulse.RegisterS1)
	arrivals := []Arrival{
		{SourceID: "far", TXTime: 1e-3, Shape: shape, Taps: lineTaps(30)},
		{SourceID: "near", TXTime: 1e-3, Shape: shape, Taps: lineTaps(4)},
	}
	rec, err := r.Receive(arrivals)
	if err != nil {
		t.Fatal(err)
	}
	if rec.LockedSourceID != "near" {
		t.Fatalf("locked to %q, want near", rec.LockedSourceID)
	}
	// Both responses visible as distinct peaks: near at the reference,
	// far delayed by (30-4)m of light travel.
	mag := rec.CIR.Magnitude()
	sep := (30 - 4) / channel.SpeedOfLight / SampleInterval
	farIdx, _ := dsp.MaxWithin(mag, ReferenceIndex+int(sep)-3, ReferenceIndex+int(sep)+4)
	if farIdx < 0 {
		t.Fatal("far response not found")
	}
	if mag[farIdx] < 3*rec.CIR.EstimateNoiseRMS() {
		t.Fatal("far response below noise floor")
	}
}

func TestReceiveLDEIgnoresWeakPrecursor(t *testing.T) {
	// A tap far below the strongest path must not capture the lock
	// (leading-edge detection threshold).
	r := testRadio(t, "rx", 8)
	shape, _ := pulse.ForRegister(pulse.RegisterS1)
	strong := lineTaps(10)[0]
	weak := channel.Tap{Delay: strong.Delay - 20e-9, Gain: strong.Gain * 0.01, Order: 1}
	rec, err := r.Receive([]Arrival{{
		SourceID: "tx",
		TXTime:   1e-3,
		Shape:    shape,
		Taps:     []channel.Tap{weak, strong},
	}})
	if err != nil {
		t.Fatal(err)
	}
	want := 1e-3 + strong.Delay
	if math.Abs(rec.LockedArrivalTime-want) > 1e-15 {
		t.Fatal("lock captured by sub-threshold precursor")
	}
}

func TestReceiveErrors(t *testing.T) {
	r := testRadio(t, "rx", 9)
	if _, err := r.Receive(nil); err == nil {
		t.Error("empty arrivals accepted")
	}
	shape, _ := pulse.ForRegister(pulse.RegisterS1)
	if _, err := r.Receive([]Arrival{{SourceID: "x", Shape: shape}}); err == nil {
		t.Error("arrival without taps accepted")
	}
}

// TestLockMatchesReceive: for 1 to 12 arrivals (multipath, equal first
// paths, a weak precursor and shapes of every bandwidth mixed in), with the
// accumulator noise on and off, Lock returns Receive's locked source,
// arrival time and timestamp, and leaves the radio's RNG where Receive
// does: the next draw is equal. Lock's errors are Receive's.
func TestLockMatchesReceive(t *testing.T) {
	regs := []byte{pulse.RegisterS1, pulse.RegisterS2, pulse.RegisterS3}
	for _, noise := range []float64{0, -1} {
		for n := 1; n <= 12; n++ {
			seed := uint64(100*n) + uint64(-noise)
			rng := rand.New(rand.NewPCG(seed, 3))
			arrivals := make([]Arrival, n)
			for i := range arrivals {
				shape, err := pulse.ForRegister(regs[i%len(regs)])
				if err != nil {
					t.Fatal(err)
				}
				taps := lineTaps(2 + 40*rng.Float64())
				if i%3 == 1 {
					taps = append(taps, channel.Tap{Delay: taps[0].Delay + 7e-9, Gain: taps[0].Gain * 0.6, Order: 1})
				}
				if i%4 == 2 {
					taps = append([]channel.Tap{{Delay: taps[0].Delay - 15e-9, Gain: taps[0].Gain * 0.05, Order: 1}}, taps...)
				}
				arrivals[i] = Arrival{SourceID: fmt.Sprintf("tx%d", i), TXTime: 1e-3 + 1e-9*float64(rng.IntN(20)),
					Shape: shape, Taps: taps, Amplitude: float64(i % 2)}
			}
			if n > 2 {
				arrivals[n-1].TXTime, arrivals[n-1].Taps = arrivals[0].TXTime, arrivals[0].Taps // a tie on the first path
			}
			radio := func() *Radio {
				r, err := New("rx", Config{PHY: airtime.PaperConfig(), NoiseRMS: noise}, rand.New(rand.NewPCG(seed, 1)))
				if err != nil {
					t.Fatal(err)
				}
				return r
			}
			full, lean := radio(), radio()
			rec, err := full.Receive(arrivals)
			if err != nil {
				t.Fatal(err)
			}
			got, err := lean.Lock(arrivals)
			if err != nil {
				t.Fatal(err)
			}
			if got.CIR != nil || got.LockedSourceID != rec.LockedSourceID ||
				math.Float64bits(got.LockedArrivalTime) != math.Float64bits(rec.LockedArrivalTime) ||
				got.Timestamp != rec.Timestamp {
				t.Fatalf("noise %g, %d arrivals: Lock (%s, %v, %d), Receive (%s, %v, %d)", noise, n,
					got.LockedSourceID, got.LockedArrivalTime, got.Timestamp, rec.LockedSourceID, rec.LockedArrivalTime, rec.Timestamp)
			}
			if a, b := lean.rng.Uint64(), full.rng.Uint64(); a != b {
				t.Fatalf("noise %g, %d arrivals: next draw after Lock %d, after Receive %d", noise, n, a, b)
			}
		}
	}
	r := testRadio(t, "rx", 9)
	if _, err := r.Lock(nil); err == nil {
		t.Error("Lock accepted no arrivals")
	}
	shape, _ := pulse.ForRegister(pulse.RegisterS1)
	if _, err := r.Lock([]Arrival{{SourceID: "x", Shape: shape}}); err == nil {
		t.Error("Lock accepted an arrival without taps")
	}
}

// firstPathIndex runs a leading-edge search: the first tap whose magnitude
// reaches factor times the estimated noise RMS, or -1.
func firstPathIndex(c *CIR, factor float64) int {
	th := factor * c.EstimateNoiseRMS()
	for i, t := range c.Taps {
		if th > 0 && real(t)*real(t)+imag(t)*imag(t) >= th*th {
			return i
		}
	}
	return -1
}

func TestReceiveNoiseFloor(t *testing.T) {
	r := testRadio(t, "rx", 10)
	shape, _ := pulse.ForRegister(pulse.RegisterS1)
	rec, err := r.Receive([]Arrival{{
		SourceID: "tx", TXTime: 0, Shape: shape, Taps: lineTaps(3),
	}})
	if err != nil {
		t.Fatal(err)
	}
	est := rec.CIR.EstimateNoiseRMS()
	if est < DefaultNoiseRMS/3 || est > DefaultNoiseRMS*3 {
		t.Fatalf("noise estimate %g far from configured %g", est, DefaultNoiseRMS)
	}
	// The leading edge crosses the threshold on the pulse's rising flank,
	// at or shortly before the reference (peak) index.
	if got := firstPathIndex(rec.CIR, 6); got < ReferenceIndex-4 || got > ReferenceIndex {
		t.Fatalf("first path at %d, want near reference %d", got, ReferenceIndex)
	}
}

func TestReceiveDisabledNoise(t *testing.T) {
	r, err := New("rx", Config{PHY: airtime.PaperConfig(), NoiseRMS: -1},
		rand.New(rand.NewPCG(11, 1)))
	if err != nil {
		t.Fatal(err)
	}
	shape, _ := pulse.ForRegister(pulse.RegisterS1)
	rec, err := r.Receive([]Arrival{{
		SourceID: "tx", TXTime: 0, Shape: shape, Taps: lineTaps(3),
	}})
	if err != nil {
		t.Fatal(err)
	}
	// All pre-reference taps must be exactly zero.
	for i := 0; i < ReferenceIndex-5; i++ {
		if rec.CIR.Taps[i] != 0 {
			t.Fatalf("tap %d nonzero without noise", i)
		}
	}
	// Noise disabled: the estimate comes from the leading window, which
	// holds only the faint pulse tail, so the leading-edge search lands on
	// the rising edge at or just before the reference index.
	if got := firstPathIndex(rec.CIR, 6); got < ReferenceIndex-4 || got > ReferenceIndex {
		t.Fatalf("first path at %d, want near reference %d", got, ReferenceIndex)
	}
}

func TestCIRCloneIndependent(t *testing.T) {
	c := &CIR{Taps: []complex128{1, 2}, SampleInterval: SampleInterval}
	cl := c.Clone()
	cl.Taps[0] = 99
	if c.Taps[0] == 99 {
		t.Fatal("Clone aliases taps")
	}
}

func TestEstimateClockRatioStatistics(t *testing.T) {
	r := testRadio(t, "a", 91)
	remote := Clock{OffsetPPM: 7}
	truth := remote.RateRatio(r.Clock())
	var stats dsp.Running
	for i := 0; i < 3000; i++ {
		stats.Add(r.EstimateClockRatio(remote) - truth)
	}
	if math.Abs(stats.Mean()) > CFOEstimateSigma/5 {
		t.Fatalf("CFO estimate bias %g", stats.Mean())
	}
	if got := stats.StdDev(); got < 0.8*CFOEstimateSigma || got > 1.2*CFOEstimateSigma {
		t.Fatalf("CFO estimate std %g, want ~%g", got, CFOEstimateSigma)
	}
}
