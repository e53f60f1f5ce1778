// Package dw1000 models the Decawave DW1000 UWB transceiver at the level
// of detail the paper's concurrent-ranging scheme depends on:
//
//   - 40-bit device timestamps counting at 63.8976 GHz (≈15.65 ps units,
//     4.69 mm of light travel — the ranging resolution quoted in Sect. II);
//   - delayed transmission that ignores the low 9 bits of the programmed
//     time, quantizing TX instants to ≈8 ns (the Sect. III limitation that
//     de-synchronizes "simultaneous" responses);
//   - a 1016-tap complex channel-impulse-response accumulator sampled at
//     T_s = 1.0016 ns (PRF 64 MHz), estimated from the frame preamble;
//   - leading-edge first-path detection and receive timestamping with
//     bandwidth-dependent jitter;
//   - the TC_PGDELAY pulse-shaping register (via internal/pulse);
//   - per-node crystal clocks with ppm-scale frequency offset.
package dw1000

// DTUFrequency is the device time-stamping counter frequency: 128 times
// the 499.2 MHz chipping rate, i.e. 63.8976 GHz.
const DTUFrequency = 499.2e6 * 128

// DTU is one device time unit in seconds (≈15.65 ps).
const DTU = 1 / DTUFrequency

// counterBits is the width of the device time counter.
const counterBits = 40

// counterWrap is the modulus of the 40-bit device time counter
// (the counter wraps roughly every 17.2 s).
const counterWrap = uint64(1) << counterBits

// counterSeconds is the span of one counter epoch in seconds.
const counterSeconds = float64(counterWrap) * DTU

// delayedTXIgnoredBits is the number of low-order bits of the delayed
// transmit time register the hardware ignores (DW1000 User Manual p. 26),
// limiting TX timestamp resolution to 512 DTU ≈ 8.013 ns.
const delayedTXIgnoredBits = 9

// DelayedTXGranularity is the effective delayed-transmission time
// granularity in seconds (≈8.013 ns).
const DelayedTXGranularity = float64(uint64(1)<<delayedTXIgnoredBits) * DTU

// DeviceTime is a 40-bit wrapping DW1000 timestamp in device time units.
type DeviceTime uint64

// wrap reduces an arbitrary count into the 40-bit counter range.
func wrap(v uint64) DeviceTime { return DeviceTime(v & (counterWrap - 1)) }

// Add returns t advanced by d seconds (d may be negative), wrapping.
func (t DeviceTime) Add(d float64) DeviceTime {
	ticks := int64(d * DTUFrequency)
	return wrap(uint64(int64(t) + ticks))
}

// Sub returns the signed elapsed time t - u in seconds, interpreting the
// pair as the nearest wrap-aware difference (|Δ| < half the counter span).
func (t DeviceTime) Sub(u DeviceTime) float64 {
	diff := (uint64(t) - uint64(u)) & (counterWrap - 1)
	if diff >= counterWrap/2 {
		return -float64(counterWrap-diff) * DTU
	}
	return float64(diff) * DTU
}

// Seconds returns the timestamp as seconds since the counter origin.
func (t DeviceTime) Seconds() float64 { return float64(t) * DTU }

// FromSeconds quantizes a non-negative device-clock reading in seconds to
// a wrapped 40-bit timestamp.
func FromSeconds(s float64) DeviceTime {
	ticks := uint64(int64(s * DTUFrequency))
	return wrap(ticks)
}

// TruncateDelayedTX clears the low 9 bits of a programmed delayed transmit
// time, exactly as the DW1000 hardware does. The realized TX instant is
// therefore up to ~8 ns *earlier* than requested.
func TruncateDelayedTX(t DeviceTime) DeviceTime {
	return t &^ DeviceTime(uint64(1)<<delayedTXIgnoredBits-1)
}
