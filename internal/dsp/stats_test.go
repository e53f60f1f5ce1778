package dsp

import (
	"math"
	mrand "math/rand"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// mean, variance and stdDev are the two-pass batch statistics the
// streaming Running accumulator is checked against.

// mean returns the arithmetic mean of v (0 for an empty slice).
func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// variance returns the unbiased sample variance of v (0 for fewer than
// two samples).
func variance(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	m := mean(v)
	var s float64
	for _, x := range v {
		d := x - m
		s += d * d
	}
	return s / float64(len(v)-1)
}

// stdDev returns the unbiased sample standard deviation of v.
func stdDev(v []float64) float64 {
	return math.Sqrt(variance(v))
}

func TestMeanVarianceStdDev(t *testing.T) {
	v := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := mean(v); !closeTo(got, 5, 1e-12) {
		t.Errorf("mean = %g, want 5", got)
	}
	if got := variance(v); !closeTo(got, 32.0/7.0, 1e-12) {
		t.Errorf("variance = %g, want %g", got, 32.0/7.0)
	}
	if got := stdDev(v); !closeTo(got, math.Sqrt(32.0/7.0), 1e-12) {
		t.Errorf("stdDev = %g", got)
	}
}

func TestStatsEdgeCases(t *testing.T) {
	if mean(nil) != 0 || variance(nil) != 0 || stdDev([]float64{1}) != 0 {
		t.Fatal("empty/single-sample statistics must be 0")
	}
}

func TestRunningMatchesBatchProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 55))
		n := 2 + r.IntN(300)
		v := make([]float64, n)
		var run Running
		for i := range v {
			v[i] = r.NormFloat64() * 10
			run.Add(v[i])
		}
		scale := 1 + math.Abs(mean(v))
		return run.N() == n &&
			closeTo(run.Mean(), mean(v), 1e-9*scale) &&
			closeTo(run.Variance(), variance(v), 1e-7*(1+variance(v))) &&
			run.Min() == minOf(v) && run.Max() == maxOf(v)
	}
	cfg := &quick.Config{MaxCount: 50, Rand: mrand.New(mrand.NewSource(46))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestRunningZeroValue(t *testing.T) {
	var r Running
	if r.N() != 0 || r.Mean() != 0 || r.Variance() != 0 || r.StdDev() != 0 {
		t.Fatal("zero-value Running must report zeros")
	}
	r.Add(5)
	if r.Min() != 5 || r.Max() != 5 || r.Mean() != 5 {
		t.Fatal("single observation mishandled")
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	if c.Rate() != 0 || c.Percent() != 0 {
		t.Fatal("zero-value Counter must report 0")
	}
	for i := 0; i < 1000; i++ {
		c.Record(i%4 != 0) // 75% success
	}
	if c.Trials() != 1000 || !closeTo(c.Rate(), 0.75, 1e-12) {
		t.Fatalf("trials=%d rate=%g", c.Trials(), c.Rate())
	}
	if !closeTo(c.Percent(), 75, 1e-12) {
		t.Fatalf("Percent = %g, want 75", c.Percent())
	}
}

func TestDBConversions(t *testing.T) {
	if got := DB(100); !closeTo(got, 20, 1e-12) {
		t.Errorf("DB(100) = %g, want 20", got)
	}
	if got := FromDB(30); !closeTo(got, 1000, 1e-9) {
		t.Errorf("FromDB(30) = %g, want 1000", got)
	}
	if !math.IsInf(DB(0), -1) || !math.IsInf(DB(-1), -1) {
		t.Error("DB of non-positive ratio must be -Inf")
	}
	// Round trip.
	for _, x := range []float64{0.001, 1, 42, 1e6} {
		if got := FromDB(DB(x)); !closeTo(got, x, 1e-9*x) {
			t.Errorf("round trip %g -> %g", x, got)
		}
	}
}

func minOf(v []float64) float64 {
	m := v[0]
	for _, x := range v[1:] {
		m = math.Min(m, x)
	}
	return m
}

func maxOf(v []float64) float64 {
	m := v[0]
	for _, x := range v[1:] {
		m = math.Max(m, x)
	}
	return m
}
