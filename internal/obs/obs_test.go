package obs

import (
	"math"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"
)

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	if g.Value() != 0 {
		t.Fatalf("fresh gauge = %g", g.Value())
	}
	g.Set(-2.5)
	if g.Value() != -2.5 {
		t.Fatalf("gauge = %g, want -2.5", g.Value())
	}
}

func TestHistogramBucketsAndStats(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got := h.Sum(); math.Abs(got-556.5) > 1e-12 {
		t.Fatalf("sum = %g, want 556.5", got)
	}
	s := h.snapshot("h")
	if *s.Min != 0.5 || *s.Max != 500 {
		t.Fatalf("min/max = %g/%g, want 0.5/500", *s.Min, *s.Max)
	}
	// v <= bound is inclusive: 0.5 and 1 land in the first bucket.
	want := []Bucket{
		{UpperBound: 1, Count: 2},
		{UpperBound: 10, Count: 1},
		{UpperBound: 100, Count: 1},
		{Overflow: true, Count: 1},
	}
	if len(s.Buckets) != len(want) {
		t.Fatalf("buckets = %+v", s.Buckets)
	}
	for i, b := range want {
		if s.Buckets[i] != b {
			t.Fatalf("bucket %d = %+v, want %+v", i, s.Buckets[i], b)
		}
	}
}

func TestHistogramEmptySnapshotOmitsMinMax(t *testing.T) {
	s := NewHistogram(nil).snapshot("empty")
	if s.Min != nil || s.Max != nil || s.Count != 0 || len(s.Buckets) != 0 {
		t.Fatalf("empty snapshot = %+v", s)
	}
}

func TestDefaultBucketsAscending(t *testing.T) {
	b := DefaultBuckets()
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("bucket bounds not ascending at %d: %g <= %g", i, b[i], b[i-1])
		}
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				h.Observe(float64(w + 1))
			}
		}(w)
	}
	wg.Wait()
	if h.Count() != 4000 {
		t.Fatalf("count = %d, want 4000", h.Count())
	}
	// Sum of 500*(1+2+...+8) = 500*36.
	if got := h.Sum(); math.Abs(got-18000) > 1e-9 {
		t.Fatalf("sum = %g, want 18000", got)
	}
}

func TestHistogramSumIgnoresRecordOrder(t *testing.T) {
	// Cancellation makes a running float sum order-dependent: 1e16, 1,
	// -1e16 once summed to 0 but 1e16, -1e16, 1 to 1.
	for _, order := range [][]float64{{1e16, 1, -1e16}, {1e16, -1e16, 1}, {1, -1e16, 1e16}} {
		h := NewHistogram(nil)
		for _, v := range order {
			h.Observe(v)
		}
		if got := h.Sum(); got != 1 {
			t.Errorf("sum of %v = %g, want 1", order, got)
		}
	}

	// One multiset of mixed magnitudes, signs and decimal fractions,
	// recorded forward, reversed, shuffled and from 8 goroutines, must
	// give bit-identical sums.
	r := rand.New(rand.NewPCG(4, 2))
	values := make([]float64, 4000)
	for i := range values {
		values[i] = (r.Float64() - 0.3) * math.Pow(10, float64(r.IntN(24)-12))
	}
	values = append(values, 1e16, -1e16, 0.1, 0.2, 0.3, -0.0)
	sumOf := func(record func(h *Histogram)) uint64 {
		h := NewHistogram(nil)
		record(h)
		if h.Count() != int64(len(values)) {
			t.Fatalf("count = %d, want %d", h.Count(), len(values))
		}
		return math.Float64bits(h.Sum())
	}
	inOrder := func(vs []float64) func(h *Histogram) {
		return func(h *Histogram) {
			for _, v := range vs {
				h.Observe(v)
			}
		}
	}
	reversed := slices.Clone(values)
	slices.Reverse(reversed)
	shuffled := slices.Clone(values)
	r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	concurrent := func(h *Histogram) {
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := w; i < len(values); i += 8 {
					h.Observe(values[i])
				}
			}()
		}
		wg.Wait()
	}
	want := sumOf(inOrder(values))
	for name, record := range map[string]func(h *Histogram){
		"reversed":   inOrder(reversed),
		"shuffled":   inOrder(shuffled),
		"concurrent": concurrent,
	} {
		if got := sumOf(record); got != want {
			t.Errorf("%s sum = %g, forward %g", name, math.Float64frombits(got), math.Float64frombits(want))
		}
	}
}

func TestHistogramSumSpecialValues(t *testing.T) {
	cases := []struct {
		name   string
		values []float64
		want   float64
	}{
		{"empty", nil, 0},
		{"negative zero", []float64{-0.0}, 0},
		{"rounds half even across partials", []float64{1e-16, 1, 1e16}, 1e16 + 2},
		{"+Inf", []float64{1, math.Inf(1), -5}, math.Inf(1)},
		{"-Inf", []float64{math.Inf(-1), 3}, math.Inf(-1)},
		{"overflow", []float64{math.MaxFloat64, math.MaxFloat64}, math.Inf(1)},
		{"opposite infinities", []float64{math.Inf(1), math.Inf(-1)}, math.NaN()},
		{"NaN", []float64{2, math.NaN()}, math.NaN()},
	}
	for _, tc := range cases {
		h := NewHistogram(nil)
		for _, v := range tc.values {
			h.Observe(v)
		}
		got := h.Sum()
		if math.Float64bits(got) != math.Float64bits(tc.want) && !(math.IsNaN(got) && math.IsNaN(tc.want)) {
			t.Errorf("%s: sum = %g, want %g", tc.name, got, tc.want)
		}
	}
}
