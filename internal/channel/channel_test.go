package channel

import (
	"math"
	"math/cmplx"
	mrand "math/rand"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"github.com/uwb-sim/concurrent-ranging/internal/geom"
)

func TestFreeSpacePathLossReference(t *testing.T) {
	pl := FreeSpacePathLoss(Channel7CenterFrequency)
	// FSPL at 1 m and 6.4896 GHz is ~48.7 dB.
	if math.Abs(pl.RefLossDB-48.7) > 0.3 {
		t.Fatalf("reference loss %g dB, want ~48.7", pl.RefLossDB)
	}
	if pl.Exponent != 2 {
		t.Fatalf("free-space exponent %g", pl.Exponent)
	}
}

func TestAmplitudeGainMonotoneDecreasing(t *testing.T) {
	pl := FreeSpacePathLoss(Channel7CenterFrequency)
	prev := math.Inf(1)
	for _, d := range []float64{0.5, 1, 2, 5, 10, 50, 100} {
		g := pl.AmplitudeGain(d)
		if g <= 0 || g >= prev {
			t.Fatalf("gain not strictly decreasing at %g m: %g", d, g)
		}
		prev = g
	}
	// Doubling distance in free space halves the amplitude.
	ratio := pl.AmplitudeGain(4) / pl.AmplitudeGain(8)
	if math.Abs(ratio-2) > 1e-9 {
		t.Fatalf("free-space distance doubling: amplitude ratio %g, want 2", ratio)
	}
	// Near-field clamp keeps the gain finite.
	if g := pl.AmplitudeGain(0); math.IsInf(g, 0) || math.IsNaN(g) {
		t.Fatal("gain at d=0 must be finite")
	}
}

func TestRealizeFreeSpaceSingleTap(t *testing.T) {
	env := FreeSpace()
	taps, err := env.Realize(geom.Point{X: 0, Y: 0}, geom.Point{X: 10, Y: 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(taps) != 1 {
		t.Fatalf("free space must yield 1 tap, got %d", len(taps))
	}
	wantDelay := 10 / SpeedOfLight
	if math.Abs(taps[0].Delay-wantDelay) > 1e-15 {
		t.Fatalf("delay %g, want %g", taps[0].Delay, wantDelay)
	}
	wantAmp := env.PathLoss.AmplitudeGain(10)
	if math.Abs(cmplx.Abs(taps[0].Gain)-wantAmp) > 1e-12 {
		t.Fatalf("amplitude %g, want %g", cmplx.Abs(taps[0].Gain), wantAmp)
	}
	if taps[0].Order != 0 {
		t.Fatalf("order %d", taps[0].Order)
	}
}

func TestRealizeRejectsColocatedNodes(t *testing.T) {
	env := FreeSpace()
	if _, err := env.Realize(geom.Point{X: 1, Y: 1}, geom.Point{X: 1, Y: 1}, nil); err == nil {
		t.Fatal("co-located nodes accepted")
	}
}

func TestRealizeRejectsMissingRNGWithDiffuse(t *testing.T) {
	env := Office()
	if _, err := env.Realize(geom.Point{X: 1, Y: 1}, geom.Point{X: 5, Y: 5}, nil); err == nil {
		t.Fatal("nil RNG accepted despite diffuse tail")
	}
}

func TestRealizeHallwayHasLOSAndReflections(t *testing.T) {
	env := Hallway()
	rng := rand.New(rand.NewPCG(70, 71))
	taps, err := env.Realize(geom.Point{X: 2, Y: 1.2}, geom.Point{X: 12, Y: 1.2}, rng)
	if err != nil {
		t.Fatal(err)
	}
	var direct *Tap
	for i := range taps {
		if taps[i].Order == 0 {
			direct = &taps[i]
			break
		}
	}
	if direct == nil {
		t.Fatal("no LOS tap")
	}
	var specular, diffuse int
	for _, tap := range taps {
		switch {
		case tap.Order > 0:
			specular++
			if tap.Delay <= direct.Delay {
				t.Fatal("specular tap earlier than LOS")
			}
		case tap.Order == DiffuseOrder:
			diffuse++
		}
	}
	if specular != 4 {
		t.Fatalf("hallway first-order reflections = %d, want 4", specular)
	}
	if diffuse == 0 {
		t.Fatal("no diffuse taps drawn")
	}
	// Sorted by delay.
	for i := 1; i < len(taps); i++ {
		if taps[i].Delay < taps[i-1].Delay {
			t.Fatal("taps not sorted by delay")
		}
	}
}

func TestRealizeLOSIsFirstAndStrongestInHallway(t *testing.T) {
	env := Hallway()
	rng := rand.New(rand.NewPCG(72, 73))
	taps, err := env.Realize(geom.Point{X: 3, Y: 1.2}, geom.Point{X: 9, Y: 1.2}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if taps[0].Order != 0 {
		t.Fatal("first tap is not the LOS component")
	}
	losAmp := cmplx.Abs(taps[0].Gain)
	for _, tap := range taps[1:] {
		if cmplx.Abs(tap.Gain) >= losAmp {
			t.Fatalf("tap (order %d) stronger than unobstructed LOS", tap.Order)
		}
	}
}

func TestDiffuseTailPowerBudgetProperty(t *testing.T) {
	// Averaged over many realizations, the diffuse power must approach
	// PowerRatio times the direct-path power.
	env := Office()
	d := 6.0
	direct := env.PathLoss.AmplitudeGain(d)
	wantPower := env.Diffuse.PowerRatio * direct * direct
	rng := rand.New(rand.NewPCG(74, 75))
	var acc float64
	const trials = 400
	for i := 0; i < trials; i++ {
		taps := env.appendDiffuseTaps(nil, d, rng)
		for _, tap := range taps {
			acc += real(tap.Gain)*real(tap.Gain) + imag(tap.Gain)*imag(tap.Gain)
		}
	}
	got := acc / trials
	if got < 0.8*wantPower || got > 1.2*wantPower {
		t.Fatalf("mean diffuse power %g, want %g ±20%%", got, wantPower)
	}
}

func TestDiffuseTapsRespectMaxExcessDelay(t *testing.T) {
	env := Industrial()
	rng := rand.New(rand.NewPCG(76, 77))
	losDelay := 10 / SpeedOfLight
	for i := 0; i < 50; i++ {
		for _, tap := range env.appendDiffuseTaps(nil, 10, rng) {
			if tap.Order != DiffuseOrder {
				t.Fatal("diffuse tap with wrong order marker")
			}
			if tap.Delay < losDelay || tap.Delay > losDelay+env.Diffuse.MaxExcessDelay+1e-12 {
				t.Fatalf("diffuse tap delay %g outside window", tap.Delay)
			}
		}
	}
}

func TestCarrierPhaseIsDeterministicFromGeometry(t *testing.T) {
	env := Hallway()
	a := env.tapForPath(geom.Path{Length: 7.3, Gain: 1, Order: 0, Points: nil})
	b := env.tapForPath(geom.Path{Length: 7.3, Gain: 1, Order: 0, Points: nil})
	if a.Gain != b.Gain {
		t.Fatal("same geometry must give the same complex gain")
	}
	// A half-carrier-wavelength longer path flips the phase.
	half := SpeedOfLight / env.CarrierFrequency / 2
	c := env.tapForPath(geom.Path{Length: 7.3 + half, Gain: 1, Order: 0})
	dot := real(a.Gain)*real(c.Gain) + imag(a.Gain)*imag(c.Gain)
	if dot >= 0 {
		t.Fatalf("half-wavelength shift did not flip phase (dot %g)", dot)
	}
}

func TestPresets(t *testing.T) {
	envs := Presets()
	for _, name := range []string{"free-space", "hallway", "office", "industrial"} {
		e, ok := envs[name]
		if !ok {
			t.Fatalf("missing preset %q", name)
		}
		if e.Name != name {
			t.Fatalf("preset %q has Name %q", name, e.Name)
		}
	}
	if _, err := PresetByName("submarine"); err == nil {
		t.Fatal("unknown preset accepted")
	}
	e, err := PresetByName("office")
	if err != nil || e.Name != "office" {
		t.Fatalf("PresetByName(office) = %v, %v", e, err)
	}
}

func TestRealizeDeterministicWithSeedProperty(t *testing.T) {
	f := func(seed uint64) bool {
		env := Office()
		tx := geom.Point{X: 1, Y: 1}
		rx := geom.Point{X: 8, Y: 6}
		t1, err1 := env.Realize(tx, rx, rand.New(rand.NewPCG(seed, 1)))
		t2, err2 := env.Realize(tx, rx, rand.New(rand.NewPCG(seed, 1)))
		if err1 != nil || err2 != nil || len(t1) != len(t2) {
			return false
		}
		for i := range t1 {
			if t1[i] != t2[i] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 20, Rand: mrand.New(mrand.NewSource(53))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// twoSliceRealize is Realize as it was built before its taps shared one
// slice, kept as the oracle: the deterministic taps in a slice of their
// own, the diffuse tail drawn into another and appended, then sorted.
func twoSliceRealize(e *Environment, tx, rx geom.Point, rng *rand.Rand) []Tap {
	var taps []Tap
	if e.Plan != nil {
		paths, err := e.Plan.Paths(tx, rx, e.MaxReflectionOrder)
		if err != nil {
			return nil
		}
		for _, p := range paths {
			taps = append(taps, e.tapForPath(p))
		}
	} else {
		taps = []Tap{e.tapForPath(geom.Path{Points: []geom.Point{tx, rx}, Length: tx.Dist(rx), Gain: 1})}
	}
	if e.Diffuse.PowerRatio > 0 {
		taps = append(taps, e.appendDiffuseTaps(nil, tx.Dist(rx), rng)...)
	}
	sortTapsByDelay(taps)
	return taps
}

// TestRealizeMatchesTwoSliceOracle: Realize returns the oracle's taps bit
// for bit, and leaves the RNG where the oracle does, on every preset and
// free space over random node pairs.
func TestRealizeMatchesTwoSliceOracle(t *testing.T) {
	free := Office()
	free.Plan = nil
	envs := []*Environment{free}
	presets := Presets()
	var names []string
	for name := range presets {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		envs = append(envs, presets[name])
	}
	pick := rand.New(rand.NewPCG(91, 92))
	for _, e := range envs {
		for i := 0; i < 40; i++ {
			tx := geom.Point{X: 0.5 + 20*pick.Float64(), Y: 0.3 + 2*pick.Float64()}
			rx := geom.Point{X: 0.5 + 20*pick.Float64(), Y: 0.3 + 2*pick.Float64()}
			r1, r2 := rand.New(rand.NewPCG(uint64(i), 3)), rand.New(rand.NewPCG(uint64(i), 3))
			got, err := e.Realize(tx, rx, r1)
			if err != nil {
				continue
			}
			want := twoSliceRealize(e, tx, rx, r2)
			if len(got) != len(want) {
				t.Fatalf("%s, %v → %v: %d taps, oracle %d", e.Name, tx, rx, len(got), len(want))
			}
			for k := range got {
				if math.Float64bits(got[k].Delay) != math.Float64bits(want[k].Delay) ||
					math.Float64bits(real(got[k].Gain)) != math.Float64bits(real(want[k].Gain)) ||
					math.Float64bits(imag(got[k].Gain)) != math.Float64bits(imag(want[k].Gain)) ||
					got[k].Order != want[k].Order {
					t.Fatalf("%s, %v → %v: tap %d = %+v, oracle %+v", e.Name, tx, rx, k, got[k], want[k])
				}
			}
			if r1.Uint64() != r2.Uint64() {
				t.Fatalf("%s, %v → %v: Realize and the oracle leave the RNG apart", e.Name, tx, rx)
			}
		}
	}
}

// TestPathsAllocations pins Plan.Paths' allocations on the hallway preset:
// the path slice, sized once; the LOS polyline; the one wall-sequence
// buffer; and for each of the four one-bounce paths its images, its
// polyline and its wall names.
func TestPathsAllocations(t *testing.T) {
	env := Hallway()
	tx, rx := geom.Point{X: 2, Y: 1.2}, geom.Point{X: 12, Y: 0.9}
	n := testing.AllocsPerRun(50, func() {
		if _, err := env.Plan.Paths(tx, rx, env.MaxReflectionOrder); err != nil {
			t.Fatal(err)
		}
	})
	if n != 15 {
		t.Fatalf("Plan.Paths allocates %v times, want 15", n)
	}
}

// TestRealizeAllocatesOneSlice: on the hallway preset Realize allocates
// the tap slice and nothing else beyond what Plan.Paths allocates.
func TestRealizeAllocatesOneSlice(t *testing.T) {
	env := Hallway()
	tx, rx := geom.Point{X: 2, Y: 1.2}, geom.Point{X: 12, Y: 0.9}
	src := rand.NewPCG(1, 2)
	rng := rand.New(src)
	paths := testing.AllocsPerRun(50, func() {
		if _, err := env.Plan.Paths(tx, rx, env.MaxReflectionOrder); err != nil {
			t.Fatal(err)
		}
	})
	realize := testing.AllocsPerRun(50, func() {
		src.Seed(1, 2)
		if _, err := env.Realize(tx, rx, rng); err != nil {
			t.Fatal(err)
		}
	})
	if realize > paths+1 {
		t.Fatalf("Realize allocates %v times, Plan.Paths %v", realize, paths)
	}
}
