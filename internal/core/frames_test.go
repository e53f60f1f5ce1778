package core

// Tests of the default path's frame search (dsp.FrameBank): the pruned
// search returns, round by round and Detect by Detect, what filtering
// every template on every frame returns, bit for bit, and both return
// what one ascending scan of every template's every output finds; and no
// frame, and no template on a visited frame, that a round passes over
// holds an output that reaches the round's best.

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand/v2"
	"slices"
	"testing"

	"github.com/uwb-sim/concurrent-ranging/internal/dsp"
	"github.com/uwb-sim/concurrent-ranging/internal/dw1000"
	"github.com/uwb-sim/concurrent-ranging/internal/obs/trace"
	"github.com/uwb-sim/concurrent-ranging/internal/pulse"
)

// fullbankTaps renders a CIR of n taps like the fullbank workload's:
// responders overlapping pulses of random shapes around one base delay,
// plus receiver noise of the given RMS.
func fullbankTaps(r *rand.Rand, bank *pulse.Bank, n, responders int, noise float64) []complex128 {
	taps := make([]complex128, n)
	base := float64(n) * (0.08 + 0.8*r.Float64())
	for range responders {
		amp := cmplx.Rect(noise*(30+r.Float64()*300), r.Float64()*2*math.Pi)
		bank.Shape(r.IntN(bank.Len())).RenderInto(taps, amp, base+(r.Float64()-0.5)*8, ts)
	}
	sigma := noise / math.Sqrt2
	for i := range taps {
		taps[i] += complex(r.NormFloat64()*sigma, r.NormFloat64()*sigma)
	}
	return taps
}

// edgeTaps renders one strong pulse of shape s whose matched-filter peak
// falls on output H·k + off of a U-fold up-sampled search with hop H,
// plus weak noise: the winner sits on a frame edge and reads a y3
// neighbour from the next or the previous frame.
func edgeTaps(r *rand.Rand, bank *pulse.Bank, d *Detector, s, k, off int) []complex128 {
	taps := make([]complex128, dw1000.CIRLength)
	hop := frameHop(d)
	pos := float64(hop*k+off+d.centers[s]) / float64(d.cfg.Upsample)
	bank.Shape(s).RenderInto(taps, cmplx.Rect(0.05, r.Float64()*2*math.Pi), pos, ts)
	for i := range taps {
		taps[i] += complex(r.NormFloat64(), r.NormFloat64()) * 1e-6
	}
	return taps
}

// frameHop returns the hop of d's frame grid, H = F − (L_max − 1) with
// F = NextPow2(2·L_max).
func frameHop(d *Detector) int {
	longest := 0
	for _, tmpl := range d.templates {
		longest = max(longest, len(tmpl))
	}
	return dsp.NextPow2(2*longest) - (longest - 1)
}

// symmetricTaps renders two equal pulses of one shape mirrored about the
// T_s position of a frame edge.
func symmetricTaps(r *rand.Rand, bank *pulse.Bank, d *Detector, s, k int) []complex128 {
	taps := make([]complex128, dw1000.CIRLength)
	edge := float64(frameHop(d)*k+d.centers[s]) / float64(d.cfg.Upsample)
	delta := 0.5 + 3*r.Float64()
	amp := cmplx.Rect(0.03, r.Float64()*2*math.Pi)
	bank.Shape(s).RenderInto(taps, amp, edge-delta, ts)
	bank.Shape(s).RenderInto(taps, amp, edge+delta, ts)
	return taps
}

// oracleRound returns the round's search result as one ascending scan of
// every template's every output finds it: template by template, frame by
// frame in ascending order, each frame's best taken from ScanFrame under
// a strict >, so the first template and then the first index of the
// largest squared magnitude wins, with y3 from the winning frame and
// EdgeNeighbours. It also returns, per template and frame, the largest
// squared magnitude outside the skip intervals and ScanFrame's peak over
// every unwrapped output.
func oracleRound(t *testing.T, d *Detector) (best candidate, outMax, peaks [][]float64) {
	t.Helper()
	fb, w, n := d.frames, &d.workers[0], len(d.up)
	if err := fb.Load(d.up); err != nil {
		t.Fatal(err)
	}
	best = candidate{t: -1}
	outMax, peaks = make([][]float64, len(d.templates)), make([][]float64, len(d.templates))
	for tm := range d.templates {
		w.skip = appendShifted(w.skip[:0], d.skipQ, d.centers[tm], n)
		outMax[tm], peaks[tm] = make([]float64, fb.Frames()), make([]float64, fb.Frames())
		for f := range fb.Frames() {
			if err := fb.Ingest(f); err != nil {
				t.Fatal(err)
			}
			idx, sq, y3, err := fb.ScanFrame(w.scratch, tm, w.skip, &peaks[tm][f])
			if err != nil {
				t.Fatal(err)
			}
			if idx >= 0 && sq > best.sq {
				best = candidate{sq: sq, t: tm, idx: idx, y3: y3}
			}
			outMax[tm][f] = sq
		}
	}
	if best.t >= 0 {
		if err := fb.EdgeNeighbours(w.scratch, best.t, best.idx, &best.y3); err != nil {
			t.Fatal(err)
		}
	}
	return best, outMax, peaks
}

// sameCandidate reports whether two candidates agree bit for bit.
func sameCandidate(a, b candidate) bool {
	if a.t != b.t || a.idx != b.idx || math.Float64bits(a.sq) != math.Float64bits(b.sq) {
		return false
	}
	for k := range a.y3 {
		if math.Float64bits(real(a.y3[k])) != math.Float64bits(real(b.y3[k])) ||
			math.Float64bits(imag(a.y3[k])) != math.Float64bits(imag(b.y3[k])) {
			return false
		}
	}
	return true
}

// requireRound checks the round d holds: the pruned and the exhaustive
// search both return oracleRound's candidate, and no (template, frame)
// pair the pruned search may pass over holds an output that reaches the
// best: neither a frame whose key is below the best nor, on every other
// frame, a member that the family bound passes over at the best
// (dsp.FrameBank.Members). The search passes members over against the
// best after the frame's representatives, which is at most the round's,
// and a higher best lists no more members, so these pairs include every
// pair the round passed over. It returns the candidate and the frames and
// the (member, frame) pairs the bounds let the round pass over.
func requireRound(t *testing.T, label string, d *Detector) (candidate, int, int) {
	t.Helper()
	d.allFrames = false
	pruned, err := d.searchTemplates()
	if err != nil {
		t.Fatal(err)
	}
	d.allFrames = true
	exhaustive, err := d.searchTemplates()
	d.allFrames = false
	if err != nil {
		t.Fatal(err)
	}
	want, outMax, peaks := oracleRound(t, d)
	if !sameCandidate(pruned, want) || !sameCandidate(exhaustive, want) {
		t.Fatalf("%s: pruned %+v, exhaustive %+v, ascending scan %+v", label, pruned, exhaustive, want)
	}
	fb := d.frames
	reps := fb.Representatives()
	repPeaks := make([]float64, len(reps))
	frames, members := 0, 0
	for f := range fb.Frames() {
		if !fb.Reaches(f, want.sq) {
			frames++
			for tm := range outMax {
				if outMax[tm][f] >= want.sq {
					t.Fatalf("%s: frame %d passed over below the best %v holds %v (template %d)", label, f, want.sq, outMax[tm][f], tm)
				}
			}
			continue
		}
		if err := fb.Ingest(f); err != nil {
			t.Fatal(err)
		}
		for g, r := range reps {
			repPeaks[g] = peaks[r][f]
		}
		listed := fb.Members(nil, repPeaks, want.sq)
		for tm := range outMax {
			if slices.Contains(reps, int32(tm)) || slices.Contains(listed, int32(tm)) {
				continue
			}
			members++
			if outMax[tm][f] >= want.sq {
				t.Fatalf("%s: template %d passed over on frame %d below the best %v holds %v", label, tm, f, want.sq, outMax[tm][f])
			}
		}
	}
	return want, frames, members
}

// eachRoundState calls check once per round of d's Detect of taps, with
// d holding the state the round searches: the up-sampled residual and
// the suppressed intervals. Round k's state is what Detect leaves with
// MaxResponses = k.
func eachRoundState(t *testing.T, d *Detector, taps []complex128, noise float64, check func(round int)) {
	t.Helper()
	cfg := d.cfg
	defer func() { d.cfg = cfg }()
	for k := 0; k < cfg.MaxIterations; k++ {
		if k == 0 {
			if err := d.ensureState(len(taps)); err != nil {
				t.Fatal(err)
			}
			scaleInto(d.residual, taps, -scaleExponent(taps))
			d.upsample.Execute(d.up, d.residual)
			d.extracted = d.extracted[:0]
		} else {
			d.cfg.MaxResponses = k
			rs, err := d.Detect(taps, noise)
			if err != nil {
				t.Fatal(err)
			}
			if len(rs) < k {
				return
			}
		}
		d.skipQ = appendSuppressedIntervals(d.skipQ[:0], d.extracted, d.cfg.Upsample)
		check(k)
		if cfg.MaxResponses > 0 && k+1 >= cfg.MaxResponses {
			return
		}
	}
}

// requirePrunedMatchesExhaustive runs d's Detect on taps with the pruned
// search and with every frame visited and requires the same responses
// bit for bit.
func requirePrunedMatchesExhaustive(t *testing.T, label string, d *Detector, taps []complex128, noise float64) []Response {
	t.Helper()
	d.allFrames = false
	got, err := d.Detect(taps, noise)
	if err != nil {
		t.Fatal(err)
	}
	got = append([]Response(nil), got...)
	d.allFrames = true
	want, err := d.Detect(taps, noise)
	d.allFrames = false
	if err != nil {
		t.Fatal(err)
	}
	if !sameResponseBits(got, want) {
		t.Fatalf("%s: pruned %+v, exhaustive %+v", label, got, want)
	}
	return got
}

// TestFrameSearchBitIdentical: on the 108-shape bank (perfbench-style CIRs
// of 1–4 overlapping responders, noise-only CIRs, responses on a frame
// edge and pairs mirrored about one), on a bank holding one shape twice,
// on short CIRs of 1–40 taps, at Upsample 8 and under MaxResponses,
// DisableThreshold and DisableRefinement, every round's pruned search
// and exhaustive search return the ascending scan's candidate bit for
// bit, no frame a round passes over holds an output reaching its best,
// and whole Detects agree bit for bit. Some rounds must pass frames
// over, and some members on visited frames, or the test would show
// nothing.
func TestFrameSearchBitIdentical(t *testing.T) {
	const noise = 1.4e-5
	full := newTestBank(t, pulse.NumShapes)
	regs, err := pulse.DefaultRegisters(8)
	if err != nil {
		t.Fatal(err)
	}
	twice, err := pulse.NewBank(ts, append(regs, regs[5])...)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewPCG(28, 1))
	type cirCase struct {
		label string
		taps  []complex128
		noise float64
	}
	skipped, passed, rounds, edges := 0, 0, 0, 0
	check := func(label string, d *Detector) func(int) {
		return func(round int) {
			best, frames, members := requireRound(t, fmt.Sprintf("%s, round %d", label, round), d)
			skipped += frames
			passed += members
			rounds++
			// A winner whose neighbour another frame owns.
			if h := frameHop(d); best.t >= 0 && (best.idx%h == 0 && best.idx > 0 || best.idx%h == h-1 && best.idx+1 < len(d.up)) {
				edges++
			}
		}
	}
	for _, c := range []struct {
		name string
		bank *pulse.Bank
		cfg  DetectorConfig
		cirs func(d *Detector) []cirCase
	}{
		{"108 shapes", full, DetectorConfig{}, func(d *Detector) []cirCase {
			var cs []cirCase
			for responders := 0; responders <= 4; responders++ {
				for i := range 2 {
					cs = append(cs, cirCase{fmt.Sprintf("%d responders #%d", responders, i), fullbankTaps(r, full, dw1000.CIRLength, responders, noise), noise})
				}
			}
			for _, off := range []int{-1, 0} {
				s := r.IntN(full.Len())
				cs = append(cs, cirCase{fmt.Sprintf("shape %d on edge %+d", s, off), edgeTaps(r, full, d, s, 1+r.IntN(20), off), 1e-6})
			}
			s := r.IntN(full.Len())
			cs = append(cs, cirCase{fmt.Sprintf("shape %d mirrored", s), symmetricTaps(r, full, d, s, 3+r.IntN(20)), 1e-6})
			return cs
		}},
		{"one shape twice", twice, DetectorConfig{}, func(d *Detector) []cirCase {
			taps := make([]complex128, dw1000.CIRLength)
			twice.Shape(5).RenderInto(taps, complex(0.02, 0.01), 300.3, ts)
			twice.Shape(2).RenderInto(taps, complex(-0.01, 0.005), 302.1, ts)
			return []cirCase{{"shapes 5 and 2", taps, 1e-6}, {"noise", fullbankTaps(r, twice, dw1000.CIRLength, 2, noise), noise}}
		}},
		{"108 shapes, upsample 8", full, DetectorConfig{Upsample: 8}, func(*Detector) []cirCase {
			return []cirCase{{"3 responders", fullbankTaps(r, full, dw1000.CIRLength, 3, noise), noise}}
		}},
		{"108 shapes, two responses, threshold off", full, DetectorConfig{MaxResponses: 2, DisableThreshold: true}, func(*Detector) []cirCase {
			return []cirCase{{"4 responders", fullbankTaps(r, full, dw1000.CIRLength, 4, noise), noise}}
		}},
		{"108 shapes, grid", full, DetectorConfig{DisableRefinement: true, MaxResponses: 3}, func(*Detector) []cirCase {
			return []cirCase{{"3 responders", fullbankTaps(r, full, dw1000.CIRLength, 3, noise), noise}}
		}},
	} {
		d, err := NewDetector(c.bank, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if d.frames == nil {
			t.Fatalf("%s: the detector does not search in frames", c.name)
		}
		for _, cc := range c.cirs(d) {
			label := c.name + ", " + cc.label
			requirePrunedMatchesExhaustive(t, label, d, cc.taps, cc.noise)
			eachRoundState(t, d, cc.taps, cc.noise, check(label, d))
		}
	}
	// Short CIRs: one frame, or a few, on the 108-shape bank and on the
	// 3-shape bank below 24 taps, where the outputs cannot be tracked.
	for _, shapes := range []int{3, pulse.NumShapes} {
		bank := newTestBank(t, shapes)
		d, err := NewDetector(bank, DetectorConfig{MaxResponses: 3, DisableThreshold: true})
		if err != nil {
			t.Fatal(err)
		}
		for n := 1; n <= 40; n++ {
			taps := make([]complex128, n)
			bank.Shape(r.IntN(bank.Len())).RenderInto(taps,
				cmplx.Rect(0.01*(1+r.Float64()), r.Float64()*2*math.Pi), r.Float64()*float64(n), ts)
			for i := range taps {
				taps[i] += complex(r.NormFloat64(), r.NormFloat64()) * 1e-5
			}
			label := fmt.Sprintf("%d shapes, %d taps", shapes, n)
			requirePrunedMatchesExhaustive(t, label, d, taps, 1e-4)
			if d.frames == nil {
				continue
			}
			eachRoundState(t, d, taps, 1e-4, check(label, d))
		}
	}
	if skipped == 0 || passed == 0 || edges == 0 {
		t.Fatalf("%d rounds passed %d frames and %d members over, %d won on a frame edge: the checks show nothing", rounds, skipped, passed, edges)
	}
	t.Logf("%d rounds passed %d frames and %d members over, %d won on a frame edge", rounds, skipped, passed, edges)
}

// TestFrameSearchTiesBitIdentical plants exact ties in the up-sampled
// residual and requires the ascending scan's winner from the pruned and
// the exhaustive search. Identical templates (a bank holding one shape
// twice) tie on every output, and the lower template wins. Two frames
// with identical inputs compute identical outputs, and the lower index
// wins; at Upsample 5 the hop is not a multiple of the 16-sample energy
// blocks, and energy placed just before the later frame, outside both
// inputs, raises the later frame's key, so the search visits it first
// and only the index rule keeps the earlier one. Squares that overflow
// tie at +Inf.
func TestFrameSearchTiesBitIdentical(t *testing.T) {
	regs, err := pulse.DefaultRegisters(8)
	if err != nil {
		t.Fatal(err)
	}
	bank, err := pulse.NewBank(ts, append(regs, regs[3])...)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDetector(bank, DetectorConfig{Upsample: 5})
	if err != nil {
		t.Fatal(err)
	}
	hop := frameHop(d)
	if hop%16 == 0 {
		t.Fatalf("hop %d is a multiple of the energy blocks", hop)
	}
	r := rand.New(rand.NewPCG(28, 2))
	trials := 0
	for trial := range 24 {
		tm := []int{3, 8, r.IntN(bank.Len())}[trial%3]
		f := 1 + r.IntN(3)
		g := f + 2 + r.IntN(3)
		if (g*hop)%16 < 4 {
			continue // no room for energy before frame g in its first block
		}
		clear(d.up)
		tmpl := d.templates[tm]
		a := cmplx.Rect(0.5, r.Float64()*2*math.Pi)
		at := 5 + r.IntN(20)
		for k, c := range tmpl {
			d.up[f*hop+at+k] = a * c
			d.up[g*hop+at+k] = a * c
		}
		// Alternating samples just before frame g: energy in its key's
		// blocks that the smooth templates barely see.
		for i := g*hop - (g*hop)%16; i < g*hop; i++ {
			d.up[i] = complex(0.4*float64(1-2*(i%2)), 0)
		}
		d.skipQ = d.skipQ[:0]
		if err := d.frames.Load(d.up); err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("trial %d, template %d on frames %d and %d", trial, tm, f, g)
		if order := d.frames.Order(); indexOf(order, g) > indexOf(order, f) {
			continue // the block alignment favours frame f's key
		}
		trials++
		want, _, _ := requireRound(t, label, d)
		wantT := tm
		if tm == 8 {
			wantT = 3 // the same shape as template 8, lower
		}
		if want.t != wantT || want.idx/hop != f {
			t.Fatalf("%s: the ascending scan picks template %d at %d, want template %d on frame %d", label, want.t, want.idx, wantT, f)
		}
	}
	if trials < 4 {
		t.Fatalf("frame g came first in %d trials, want at least 4", trials)
	}
	// Squares that overflow tie at +Inf, and so do the keys of the frames
	// holding them, which the search visits in ascending order. The later
	// frame's +Inf comes from the lower template, so the search must visit
	// it after the best has become +Inf: a frame is passed over only when
	// its key is below the best, never when equal.
	for trial := range 4 {
		f := 1 + r.IntN(3)
		g := f + 2 + r.IntN(3)
		clear(d.up)
		a := cmplx.Rect(math.Sqrt(math.MaxFloat64)*1.00001, r.Float64()*2*math.Pi)
		for k, c := range d.templates[6] {
			d.up[f*hop+10+k] = a * c
		}
		for k, c := range d.templates[2] {
			d.up[g*hop+10+k] = a * c
		}
		d.skipQ = d.skipQ[:0]
		label := fmt.Sprintf("overflow trial %d, frames %d and %d", trial, f, g)
		want, _, _ := requireRound(t, label, d)
		if want.t != 2 || want.idx/hop != g || !math.IsInf(want.sq, 1) {
			t.Fatalf("%s: the ascending scan picks template %d at %d with %v, want template 2 on frame %d at +Inf", label, want.t, want.idx, want.sq, g)
		}
	}
}

func indexOf(order []int32, f int) int {
	for i, v := range order {
		if int(v) == f {
			return i
		}
	}
	return -1
}

// TestFrameSearchWorkersBitIdentical: the per-frame template fan-out
// gives the serial search's responses bit for bit at 2, 3 and 8 workers
// (3 cut the 108-shape bank's 10 groups into uneven chunks), and
// so does DetectBatch, whose workers search serially; a traced Detect,
// which visits every frame, returns the untraced responses and one score
// per template each round, the winner's the largest. CI runs it under the
// race detector.
func TestFrameSearchWorkersBitIdentical(t *testing.T) {
	const noise = 1.4e-5
	bank := newTestBank(t, pulse.NumShapes)
	r := rand.New(rand.NewPCG(28, 3))
	var inputs []BatchInput
	for i := range 4 {
		inputs = append(inputs, BatchInput{Taps: fullbankTaps(r, bank, dw1000.CIRLength, 1+i, noise), NoiseRMS: noise})
	}
	serial, err := NewDetector(bank, DetectorConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]Response, len(inputs))
	for i, in := range inputs {
		want[i] = requirePrunedMatchesExhaustive(t, fmt.Sprintf("CIR %d", i), serial, in.Taps, in.NoiseRMS)
	}
	for _, w := range []int{2, 3, 8} {
		d, err := NewDetector(bank, DetectorConfig{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		for i, in := range inputs {
			got, err := d.Detect(in.Taps, in.NoiseRMS)
			if err != nil {
				t.Fatal(err)
			}
			requireSameResponses(t, fmt.Sprintf("%d workers, CIR %d", w, i), got, want[i])
		}
	}
	eng, err := NewBatchDetector(bank, DetectorConfig{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for i, res := range eng.DetectBatch(inputs) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		requireSameResponses(t, fmt.Sprintf("batch, CIR %d", i), res.Responses, want[i])
	}
	traced, err := NewDetector(bank, DetectorConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(trace.Config{})
	traced.SetFlightRecorder(tr)
	for i, in := range inputs {
		got, err := traced.Detect(in.Taps, in.NoiseRMS)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResponses(t, fmt.Sprintf("traced, CIR %d", i), got, want[i])
	}
	rounds := 0
	for _, ev := range tr.Events() {
		if ev.Phase != trace.PhaseInstant || ev.Name != trace.EventDetectRound {
			continue
		}
		rounds++
		scores, ok := ev.Attrs[trace.AttrScores].([]float64)
		if !ok || len(scores) != bank.Len() {
			t.Fatalf("round scores %#v, want %d", ev.Attrs[trace.AttrScores], bank.Len())
		}
		top := 0.0
		for _, s := range scores {
			top = max(top, s)
		}
		if tm, ok := ev.Attrs[trace.AttrTemplate].(int); ok && scores[tm] != top {
			t.Fatalf("winning template %d scores %v, the largest score is %v", tm, scores[tm], top)
		}
	}
	if rounds == 0 {
		t.Fatal("no traced rounds")
	}
}

// FuzzFrameSearch runs the pruned and the exhaustive frame search on
// fuzzed taps scaled by a fuzzed power of two, on banks of 8–16 shapes,
// and requires the same responses bit for bit, and the ascending scan's
// candidate from the first round's pruned and exhaustive searches.
func FuzzFrameSearch(f *testing.F) {
	r := rand.New(rand.NewPCG(28, 4))
	bank, err := pulse.DefaultBank(ts, 12)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(encodeTaps(fullbankTaps(r, bank, 300, 3, 1e-4)), int16(0), uint8(4))
	f.Add(encodeTaps(fullbankTaps(r, bank, 40, 1, 1e-4)), int16(-300), uint8(0))
	f.Add(encodeTaps(fullbankTaps(r, bank, 1016, 2, 1e-4)), int16(500), uint8(8))
	f.Fuzz(func(t *testing.T, data []byte, exp int16, extra uint8) {
		n := len(data) / 16
		if n == 0 || n > dw1000.CIRLength {
			return
		}
		taps := make([]complex128, n)
		for i := range taps {
			re := math.Float64frombits(binary.LittleEndian.Uint64(data[16*i:]))
			im := math.Float64frombits(binary.LittleEndian.Uint64(data[16*i+8:]))
			if math.IsNaN(re) || math.IsInf(re, 0) || math.IsNaN(im) || math.IsInf(im, 0) {
				return
			}
			taps[i] = complex(re, im)
		}
		k := int(exp) % 1000
		if !exactScale(taps, k) {
			return
		}
		for i, c := range taps {
			taps[i] = complex(math.Ldexp(real(c), k), math.Ldexp(imag(c), k))
		}
		shapes := 8 + int(extra)%9
		b, err := pulse.DefaultBank(ts, shapes)
		if err != nil {
			t.Fatal(err)
		}
		// Serial: TestFrameSearchWorkersBitIdentical covers the fan-out.
		d, err := NewDetector(b, DetectorConfig{MaxResponses: 4, DisableThreshold: true, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		requirePrunedMatchesExhaustive(t, "fuzz", d, taps, 0)
		eachRoundState(t, d, taps, 0, func(round int) {
			if round == 0 {
				requireRound(t, "fuzz, round 0", d)
			}
		})
	})
}
