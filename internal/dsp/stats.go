package dsp

import "math"

// Mean returns the arithmetic mean of v (0 for an empty slice).
func Mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// Variance returns the unbiased sample variance of v (0 for fewer than two
// samples).
func Variance(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	m := Mean(v)
	var s float64
	for _, x := range v {
		d := x - m
		s += d * d
	}
	return s / float64(len(v)-1)
}

// StdDev returns the unbiased sample standard deviation of v.
func StdDev(v []float64) float64 {
	return math.Sqrt(Variance(v))
}

// Running accumulates streaming statistics with Welford's algorithm so the
// Monte-Carlo harness never stores per-trial samples it does not need.
// The zero value is ready to use.
type Running struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates one observation.
func (r *Running) Add(x float64) {
	r.n++
	if r.n == 1 {
		r.min, r.max = x, x
	} else {
		r.min = math.Min(r.min, x)
		r.max = math.Max(r.max, x)
	}
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (x - r.mean)
}

// N returns the number of observations added so far.
func (r *Running) N() int { return r.n }

// Mean returns the running mean (0 before the first observation).
func (r *Running) Mean() float64 { return r.mean }

// Variance returns the unbiased running sample variance.
func (r *Running) Variance() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n-1)
}

// StdDev returns the unbiased running sample standard deviation.
func (r *Running) StdDev() float64 { return math.Sqrt(r.Variance()) }

// Min returns the smallest observation (0 before the first observation).
func (r *Running) Min() float64 { return r.min }

// Max returns the largest observation (0 before the first observation).
func (r *Running) Max() float64 { return r.max }

// Counter tracks the success rate of repeated boolean trials, e.g. the
// pulse-identification percentages of Table I.
// The zero value is ready to use.
type Counter struct {
	trials    int
	successes int
}

// Record adds one trial outcome.
func (c *Counter) Record(success bool) {
	c.trials++
	if success {
		c.successes++
	}
}

// Trials returns the number of recorded trials.
func (c *Counter) Trials() int { return c.trials }

// Successes returns the number of successful trials.
func (c *Counter) Successes() int { return c.successes }

// Rate returns the success fraction in [0,1] (0 with no trials).
func (c *Counter) Rate() float64 {
	if c.trials == 0 {
		return 0
	}
	return float64(c.successes) / float64(c.trials)
}

// Percent returns the success rate as a percentage.
func (c *Counter) Percent() float64 { return 100 * c.Rate() }

// DB converts a linear power ratio to decibels.
func DB(ratio float64) float64 {
	if ratio <= 0 {
		return math.Inf(-1)
	}
	return 10 * math.Log10(ratio)
}

// FromDB converts decibels to a linear power ratio.
func FromDB(db float64) float64 {
	return math.Pow(10, db/10)
}
