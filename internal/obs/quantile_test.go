package obs

import (
	"math"
	"sort"
	"testing"
)

// Golden quantile values for a hand-computable histogram. The bucket
// interpolation is deterministic, so these are exact expectations, not
// tolerances-around-a-sample.
func TestHistogramQuantilesGolden(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 5, 10})
	// 10 observations: 4 in (0,1], 3 in (1,2], 2 in (2,5], 1 in (5,10].
	for _, v := range []float64{0.2, 0.4, 0.6, 0.8, 1.2, 1.5, 1.8, 3, 4, 8} {
		h.Observe(v)
	}
	s := h.snapshot("q")
	cases := []struct {
		q    float64
		want float64
	}{
		// rank 5 falls in the (1,2] bucket holding ranks 5-7:
		// 1 + (5-4)/3 * (2-1).
		{0.50, 1 + 1.0/3},
		// rank 9.5 falls in the (5,10] bucket (ranks 10): upper clamps
		// to max 8: 5 + (9.5-9)/1 * (8-5).
		{0.95, 6.5},
		// rank 9.9: 5 + 0.9*(8-5).
		{0.99, 7.7},
		// Extremes pin to the observed range.
		{0, 0.2},
		{1, 8},
	}
	for _, tc := range cases {
		if got := s.Quantile(tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("Quantile(%g) = %g, want %g", tc.q, got, tc.want)
		}
	}
	// The snapshot exports the same three estimates.
	if *s.P50 != s.Quantile(0.50) || *s.P95 != s.Quantile(0.95) || *s.P99 != s.Quantile(0.99) {
		t.Errorf("exported quantiles %g/%g/%g disagree with Quantile", *s.P50, *s.P95, *s.P99)
	}
}

func TestHistogramQuantileEdgeCases(t *testing.T) {
	if got := (HistogramSnapshot{}).Quantile(0.5); got != 0 {
		t.Errorf("empty histogram quantile = %g, want 0", got)
	}
	// Single observation: every quantile is that value (interpolation
	// clamps to min == max).
	h := NewHistogram([]float64{1, 10})
	h.Observe(3)
	s := h.snapshot("one")
	for _, q := range []float64{0.01, 0.5, 0.99} {
		if got := s.Quantile(q); got != 3 {
			t.Errorf("single-value Quantile(%g) = %g, want 3", q, got)
		}
	}
	// Everything in the overflow bucket: quantiles report max.
	h2 := NewHistogram([]float64{1})
	h2.Observe(50)
	h2.Observe(70)
	if got := h2.snapshot("ovf").Quantile(0.5); got != 70 {
		t.Errorf("overflow-bucket quantile = %g, want 70", got)
	}
}

// linearBucket is the pre-optimization reference implementation of the
// Observe bucket search.
func linearBucket(bounds []float64, v float64) int {
	idx := len(bounds)
	for i, b := range bounds {
		if v <= b {
			idx = i
			break
		}
	}
	return idx
}

// The binary search must pick the same bucket as the old linear scan for
// every value, including exact bound hits, extremes, and NaN.
func TestObserveBucketMatchesLinearScan(t *testing.T) {
	bounds := DefaultBuckets()
	vals := []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1), 1e-9, 1e9}
	vals = append(vals, bounds...)
	for _, b := range bounds {
		vals = append(vals, math.Nextafter(b, 0), math.Nextafter(b, math.Inf(1)))
	}
	for _, v := range vals {
		want := linearBucket(bounds, v)
		got := sort.SearchFloat64s(bounds, v)
		if got != want {
			t.Errorf("bucket(%g) = %d, linear reference %d", v, got, want)
		}
	}
}

// benchValues spreads observations log-uniformly across the default
// buckets, so the linear reference pays its average cost (half the 37
// bounds) rather than an unrepresentative first-bucket exit.
func benchValues(n int) []float64 {
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = math.Pow(10, -6+12*float64(i)/float64(n))
	}
	return vals
}

func BenchmarkHistogramObserve(b *testing.B) {
	vals := benchValues(1024)
	b.Run("binary", func(b *testing.B) {
		h := NewHistogram(nil)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Observe(vals[i&1023])
		}
	})
	// The pre-optimization search in isolation, for the same value
	// stream; compare with BenchmarkBucketSearch/binary to see the
	// Observe win independent of the update cost both share.
	b.Run("linear-search-reference", func(b *testing.B) {
		bounds := DefaultBuckets()
		b.ReportAllocs()
		var sink int
		for i := 0; i < b.N; i++ {
			sink += linearBucket(bounds, vals[i&1023])
		}
		_ = sink
	})
}

func BenchmarkBucketSearch(b *testing.B) {
	bounds := DefaultBuckets()
	vals := benchValues(1024)
	b.Run("linear", func(b *testing.B) {
		var sink int
		for i := 0; i < b.N; i++ {
			sink += linearBucket(bounds, vals[i&1023])
		}
		_ = sink
	})
	b.Run("binary", func(b *testing.B) {
		var sink int
		for i := 0; i < b.N; i++ {
			sink += sort.SearchFloat64s(bounds, vals[i&1023])
		}
		_ = sink
	})
}
