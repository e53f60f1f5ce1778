package dsp

import (
	"math/rand/v2"
	"testing"
)

// randComplex returns a deterministic pseudo-random complex vector.
func randComplex(n int, seed uint64) []complex128 {
	rng := rand.New(rand.NewPCG(seed, 29))
	out := make([]complex128, n)
	for i := range out {
		out[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return out
}

// equalExact fails unless got and want are bit-identical.
func equalExact(t *testing.T, got, want []complex128, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: sample %d = %v, want %v", what, i, got[i], want[i])
		}
	}
}

func TestNewFFTPlanRejectsNonPowerOfTwo(t *testing.T) {
	for _, n := range []int{0, -1, 3, 12, 1016} {
		if _, err := newFFTPlan(n); err == nil {
			t.Errorf("length %d accepted", n)
		}
	}
}

func TestFFTPlanMatchesFFT(t *testing.T) {
	for _, n := range []int{1, 2, 4, 64, 1024, 4096} {
		p, err := newFFTPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		v := randComplex(n, uint64(n))

		got := Clone(v)
		p.transform(got, p.fwd)
		equalExact(t, got, refFFT(v), "forward")

		got = Clone(v)
		p.transform(got, p.inv)
		Scale(got, complex(1/float64(n), 0))
		equalExact(t, got, refIFFT(v), "inverse")

		// Plans are reusable: a second pass must give the same answer.
		got2 := Clone(v)
		p.transform(got2, p.fwd)
		equalExact(t, got2, refFFT(v), "forward reuse")
	}
}

func TestProductTransformMatchesSeparateSteps(t *testing.T) {
	// The fused permute-while-multiplying entry must be bit-identical to
	// filling the product in index order and transforming it, in both
	// directions — it is the ScanBest hot path.
	for _, n := range []int{1, 2, 8, 1024} {
		p, err := newFFTPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		a := randComplex(n, uint64(n))
		b := randComplex(n, uint64(n)+101)
		for _, tw := range [][]complex128{p.fwd, p.inv} {
			want := make([]complex128, n)
			for i := range want {
				want[i] = a[i] * b[i]
			}
			p.transform(want, tw)
			got := make([]complex128, n)
			p.productTransform(got, a, b, tw)
			equalExact(t, got, want, "fused product transform")
		}
	}
}

func TestProductTransformPermutedMatchesNaturalOrder(t *testing.T) {
	// Pre-permuting both operands (permuteInto) and running the
	// sequential-load entry must give bit-identical results to the
	// natural-order fused form — the ScanBest hot path stores spectra
	// bit-reversed and relies on this.
	for _, n := range []int{1, 2, 8, 1024} {
		p, err := newFFTPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		a := randComplex(n, uint64(n)+301)
		b := randComplex(n, uint64(n)+401)
		for _, tw := range [][]complex128{p.fwd, p.inv} {
			want := make([]complex128, n)
			p.productTransform(want, a, b, tw)
			ar := make([]complex128, n)
			br := make([]complex128, n)
			p.permuteInto(ar, a)
			p.permuteInto(br, b)
			got := make([]complex128, n)
			p.productTransformPermuted(got, ar, br, tw)
			equalExact(t, got, want, "permuted product transform")
		}
	}
}

func TestDFTPlanMatchesFFTAllLengths(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 12, 100, 127, 256, 1016} {
		p, err := newDFTPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		v := randComplex(n, uint64(n)+7)

		got := Clone(v)
		p.Execute(got)
		equalExact(t, got, refFFT(v), "forward")

		got = Clone(v)
		p.ExecuteInverse(got)
		equalExact(t, got, refIFFT(v), "inverse")

		got2 := Clone(v)
		p.Execute(got2)
		equalExact(t, got2, refFFT(v), "forward reuse")
	}
}

func TestUpsamplePlanMatchesUpsampleFFT(t *testing.T) {
	cases := []struct{ n, factor int }{
		{1016, 4}, {1016, 8}, {128, 4}, {15, 3}, {64, 1}, {7, 2},
	}
	for _, c := range cases {
		p, err := NewUpsamplePlan(c.n, c.factor)
		if err != nil {
			t.Fatal(err)
		}
		v := randComplex(c.n, uint64(c.n*c.factor))
		want := refUpsample(v, c.factor)
		dst := make([]complex128, c.n*c.factor)
		// Dirty the buffer: Execute must not depend on prior contents.
		for i := range dst {
			dst[i] = complex(999, -999)
		}
		equalExact(t, p.Execute(dst, v), want, "upsample")
		equalExact(t, p.Execute(dst, v), want, "upsample reuse")
	}
}

func TestNewUpsamplePlanRejectsBadFactor(t *testing.T) {
	if _, err := NewUpsamplePlan(8, 0); err == nil {
		t.Error("factor 0 accepted")
	}
	if _, err := NewUpsamplePlan(-1, 2); err == nil {
		t.Error("negative length accepted")
	}
}

func TestMatchedFilterBankMatchesMatchedFilter(t *testing.T) {
	const sigLen = 4064
	templates := [][]complex128{
		randComplex(37, 11),
		randComplex(75, 12),
		randComplex(97, 13),
		randComplex(3, 14), // small enough for the direct path
	}
	bank, err := NewMatchedFilterBank(templates, sigLen)
	if err != nil {
		t.Fatal(err)
	}
	if bank.NumTemplates() != len(templates) {
		t.Fatalf("bank holds %d templates", bank.NumTemplates())
	}
	dst := make([]complex128, sigLen)
	for round := 0; round < 2; round++ { // exercise buffer reuse across signals
		sig := randComplex(sigLen, 20+uint64(round))
		if err := bank.Transform(sig); err != nil {
			t.Fatal(err)
		}
		for ti, tmpl := range templates {
			want := refMatchedFilter(sig, tmpl)
			got, err := bank.FilterInto(dst, ti)
			if err != nil {
				t.Fatal(err)
			}
			equalExact(t, got, want, "bank output")
		}
	}
}

func TestMatchedFilterBankErrors(t *testing.T) {
	if _, err := NewMatchedFilterBank(nil, 8); err == nil {
		t.Error("empty bank accepted")
	}
	if _, err := NewMatchedFilterBank([][]complex128{{1}}, 0); err == nil {
		t.Error("zero signal length accepted")
	}
	if _, err := NewMatchedFilterBank([][]complex128{{}}, 8); err == nil {
		t.Error("empty template accepted")
	}
	bank, err := NewMatchedFilterBank([][]complex128{randComplex(4, 1)}, 16)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]complex128, 16)
	if _, err := bank.FilterInto(dst, 0); err == nil {
		t.Error("FilterInto before Transform accepted")
	}
	if err := bank.Transform(make([]complex128, 8)); err == nil {
		t.Error("wrong signal length accepted")
	}
	if err := bank.Transform(make([]complex128, 16)); err != nil {
		t.Fatal(err)
	}
	if _, err := bank.FilterInto(dst, 5); err == nil {
		t.Error("template index out of range accepted")
	}
	if _, err := bank.FilterInto(make([]complex128, 2), 0); err == nil {
		t.Error("short destination accepted")
	}
}

func TestPlanExecutionCounters(t *testing.T) {
	up, err := NewUpsamplePlan(16, 4)
	if err != nil {
		t.Fatal(err)
	}
	in := make([]complex128, 16)
	out := make([]complex128, 64)
	for i := 0; i < 3; i++ {
		up.Execute(out, in)
	}
	if up.Execs() != 3 {
		t.Errorf("upsample execs = %d, want 3", up.Execs())
	}

	bank, err := NewMatchedFilterBank([][]complex128{{1, 2}, {3}}, 16)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]complex128, 16)
	for i := 0; i < 2; i++ {
		if err := bank.Transform(in); err != nil {
			t.Fatal(err)
		}
		for tmpl := 0; tmpl < bank.NumTemplates(); tmpl++ {
			if _, err := bank.FilterInto(dst, tmpl); err != nil {
				t.Fatal(err)
			}
		}
	}
	if bank.Transforms() != 2 {
		t.Errorf("bank transforms = %d, want 2", bank.Transforms())
	}
	if bank.Filters() != 4 {
		t.Errorf("bank filters = %d, want 4", bank.Filters())
	}
}
