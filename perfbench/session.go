package main

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand/v2"
	"time"

	"github.com/uwb-sim/concurrent-ranging/internal/airtime"
	"github.com/uwb-sim/concurrent-ranging/internal/channel"
	"github.com/uwb-sim/concurrent-ranging/internal/core"
	"github.com/uwb-sim/concurrent-ranging/internal/dsp"
	"github.com/uwb-sim/concurrent-ranging/internal/dw1000"
	"github.com/uwb-sim/concurrent-ranging/internal/geom"
	"github.com/uwb-sim/concurrent-ranging/internal/locate"
	"github.com/uwb-sim/concurrent-ranging/internal/obs"
	"github.com/uwb-sim/concurrent-ranging/internal/pulse"
	"github.com/uwb-sim/concurrent-ranging/internal/sim"
	"github.com/uwb-sim/concurrent-ranging/ranging"
)

// The session workload is the examples/museum deployment: nine anchor tags
// in a 30 m × 2.4 m hallway, a 75 m communication range (4 RPM slots) and
// 3 pulse shapes, on the ideal transceiver. One op is Session.Run followed
// by ranging.LocateFrom while the visitor walks a seed-derived path.
const (
	museumMaxRange = 75
	museumShapes   = 3
	// The walk stays in the middle 22 m of the hallway, at least 0.3 m from
	// the wall anchors, stepping walkStep meters along it and lateralStep
	// across it per round. Near the hallway's ends, where every anchor lies
	// to one side, the position fix can fail on singular geometry; the walk
	// keeps clear of them so no op fails.
	hallMinX, hallMaxX = 5.0, 27.0
	hallMinY, hallMaxY = 0.6, 1.8
	walkStep           = 0.5
	lateralStep        = 0.1
)

// museumAnchors are the example's anchor positions, indexed by responder ID.
var museumAnchors = []ranging.Position{
	{X: 3, Y: 0.3}, {X: 7, Y: 2.1}, {X: 11, Y: 0.3},
	{X: 15, Y: 2.1}, {X: 19, Y: 0.3}, {X: 23, Y: 2.1},
	{X: 26, Y: 0.3}, {X: 28, Y: 2.1}, {X: 29, Y: 0.3},
}

// museumAnchorMap is museumAnchors in the form ranging.LocateFrom takes.
var museumAnchorMap = func() map[int]ranging.Position {
	m := make(map[int]ranging.Position, len(museumAnchors))
	for id, p := range museumAnchors {
		m[id] = p
	}
	return m
}()

// walk is the visitor's path: walkStep meters along the hallway and
// lateralStep across it per round, turning at the walk's edges. The seed
// sets the start and both headings. The two back-and-forth sweeps visit
// every part of the walk's rectangle equally, so the per-round cost and the
// error mix barely depend on the seed.
type walk struct {
	pos        ranging.Position
	dirX, dirY float64 // +1 or -1
}

func newWalk(seed uint64) *walk {
	rng := rand.New(rand.NewPCG(seed, 0x3a11))
	w := &walk{
		pos: ranging.Position{
			X: hallMinX + rng.Float64()*(hallMaxX-hallMinX),
			Y: hallMinY + rng.Float64()*(hallMaxY-hallMinY),
		},
		dirX: 1, dirY: 1,
	}
	if rng.IntN(2) == 0 {
		w.dirX = -1
	}
	if rng.IntN(2) == 0 {
		w.dirY = -1
	}
	return w
}

// next advances one step and returns the position of the next round.
func (w *walk) next() ranging.Position {
	w.pos.X, w.dirX = bounce(w.pos.X, w.dirX*walkStep, hallMinX, hallMaxX)
	w.pos.Y, w.dirY = bounce(w.pos.Y, w.dirY*lateralStep, hallMinY, hallMaxY)
	return w.pos
}

// bounce moves v by step, reversing at lo and hi; it returns the new value
// and heading.
func bounce(v, step, lo, hi float64) (float64, float64) {
	if v+step > hi || v+step < lo {
		step = -step
	}
	return v + step, math.Copysign(1, step)
}

// buildSession builds the museum session with the initiator at start.
// Responders are added in ID order, so equal seeds give equal sessions.
func buildSession(seed uint64, start ranging.Position) (*ranging.Session, error) {
	sc := ranging.NewScenario(ranging.Config{
		Environment:      ranging.EnvHallway,
		Seed:             seed,
		MaxRange:         museumMaxRange,
		NumShapes:        museumShapes,
		IdealTransceiver: true,
	})
	sc.SetInitiator(start.X, start.Y)
	for id, p := range museumAnchors {
		sc.AddResponder(id, p.X, p.Y)
	}
	return sc.Build()
}

// roundResult is one round's output as the checks compare it.
type roundResult struct {
	ms     []ranging.Measurement
	fix    ranging.Position
	failed bool
}

func sameRound(a, b roundResult) bool {
	if a.failed || b.failed {
		return a.failed == b.failed
	}
	if a.fix != b.fix || len(a.ms) != len(b.ms) {
		return false
	}
	for i := range a.ms {
		if a.ms[i] != b.ms[i] {
			return false
		}
	}
	return true
}

// sessionBare is the bare session loop's tally.
type sessionBare struct {
	loop            *loop
	found, expected int
	fixErrM         []float64
	// first holds the first sessionCheckRounds rounds for the composed-path
	// check.
	first []roundResult
	setup float64
	heap  float64
}

// runSessionLoop builds the session (timing the set-up) and runs the bare
// closed loop for d, at least minRounds rounds.
func runSessionLoop(cfg config, d time.Duration, minRounds int) (*sessionBare, error) {
	w := newWalk(cfg.seed)
	var sess *ranging.Session
	setup, err := medianSetup(cfg.sizes.setups, 1, func() error {
		var err error
		sess, err = buildSession(cfg.seed, w.pos)
		return err
	})
	if err != nil {
		return nil, err
	}
	b := &sessionBare{setup: setup}
	round := 0
	b.loop = runLoop(d, minRounds, 1, func() (time.Duration, int, int) {
		pos := w.next()
		sess.MoveInitiator(pos.X, pos.Y)
		t0 := time.Now()
		res, err := sess.Run()
		var fix ranging.Position
		if err == nil {
			fix, err = ranging.LocateFrom(res.Measurements, museumAnchorMap)
		}
		el := time.Since(t0)
		k := round
		round++
		failed := err != nil || !finite(fix.X, fix.Y)
		if k < cfg.sizes.sessionCheckRounds {
			rr := roundResult{fix: fix, failed: failed}
			if res != nil {
				rr.ms = res.Measurements
			}
			b.first = append(b.first, rr)
		}
		if k < cfg.sizes.sessionRounds {
			b.expected += len(museumAnchors)
			if !failed {
				b.found += foundWithTruth(res.Measurements)
				b.fixErrM = append(b.fixErrM, math.Hypot(fix.X-pos.X, fix.Y-pos.Y))
			}
		}
		if failed {
			return el, 0, 1
		}
		return el, 1, 0
	})
	b.heap = liveHeapMB()
	return b, nil
}

func foundWithTruth(ms []ranging.Measurement) int {
	n := 0
	for _, m := range ms {
		if m.HasTruth {
			n++
		}
	}
	return n
}

// checkComposed fails unless got reproduces want round for round.
func checkComposed(want, got []roundResult) error {
	if len(got) < len(want) {
		return checkFailed("composed path ran %d rounds, Session.Run %d", len(got), len(want))
	}
	for k := range want {
		if !sameRound(want[k], got[k]) {
			return checkFailed("composed round %d differs from Session.Run:\n  session  %+v\n  composed %+v", k, want[k], got[k])
		}
	}
	return nil
}

func runSessionBare(cfg config) (*outcome, error) {
	b, err := runSessionLoop(cfg, duration(cfg.seconds), cfg.sizes.sessionRounds)
	if err != nil {
		return nil, err
	}
	// Replay the first rounds through the composed path the traced run
	// times, and require Session.Run's measurements bit for bit.
	w := newWalk(cfg.seed)
	p, err := newPipeline(cfg.seed, w.pos)
	if err != nil {
		return nil, err
	}
	got := make([]roundResult, 0, len(b.first))
	for range b.first {
		out, _ := p.run(w.next())
		got = append(got, out.result)
	}
	if err := checkComposed(b.first, got); err != nil {
		return nil, err
	}
	values := map[string]float64{
		"found_ratio": ratio(float64(b.found), float64(b.expected)),
		"err_m":       median(b.fixErrM),
	}
	b.loop.endToEnd(values, b.heap, b.setup)
	return b.loop.outcome(values), nil
}

// pipeline is Session.Run followed by LocateFrom, rebuilt from the public
// calls of the layers below ranging on a network, detector and resolver
// built exactly as Scenario.Build builds them, so each call can be timed
// from outside.
type pipeline struct {
	net   *sim.Network
	init  *sim.Node
	resps []*sim.Node
	plan  core.SlotPlan
	bank  *pulse.Bank
	det   *core.Detector
	res   *core.Resolver
	cfg   sim.RoundConfig
}

func newPipeline(seed uint64, start ranging.Position) (*pipeline, error) {
	env, err := channel.PresetByName(ranging.EnvHallway)
	if err != nil {
		return nil, err
	}
	plan, err := core.NewSlotPlan(museumMaxRange, museumShapes)
	if err != nil {
		return nil, err
	}
	bank, err := pulse.DefaultBank(dw1000.SampleInterval, museumShapes)
	if err != nil {
		return nil, err
	}
	net, err := sim.NewNetwork(sim.NetworkConfig{Environment: env, Seed: seed, RandomClockPhase: true})
	if err != nil {
		return nil, err
	}
	init, err := net.AddNode(sim.NodeConfig{ID: -1, Name: "initiator", Pos: geom.Point{X: start.X, Y: start.Y}})
	if err != nil {
		return nil, err
	}
	p := &pipeline{net: net, init: init, plan: plan, bank: bank, res: &core.Resolver{Plan: plan}}
	for id, a := range museumAnchors {
		node, err := net.AddNode(sim.NodeConfig{ID: id, Name: fmt.Sprintf("responder%d", id), Pos: geom.Point{X: a.X, Y: a.Y}})
		if err != nil {
			return nil, err
		}
		p.resps = append(p.resps, node)
	}
	if p.det, err = core.NewDetector(bank, core.DetectorConfig{}); err != nil {
		return nil, err
	}
	p.cfg = sim.RoundConfig{Plan: plan, Bank: bank, DisableTXQuantization: true}
	return p, nil
}

// stepTimes are one composed round's host times: the whole op and the
// calls into each layer below ranging.
type stepTimes struct {
	total, sim, detect, resolve, solve time.Duration
}

// self is the op time no child call explains: ranging's own work.
func (s stepTimes) self() time.Duration { return s.total - s.sim - s.detect - s.resolve - s.solve }

// pipelineOut is one composed round's output.
type pipelineOut struct {
	result    roundResult
	times     stepTimes
	taps      []complex128 // the round's CIR, for the dsp replays
	magnitude []float64    // Session.Run returns the CIR magnitude too
	locIters  int
}

// run executes one round at pos the way Session.Run and LocateFrom do.
func (p *pipeline) run(pos ranging.Position) (pipelineOut, error) {
	var out pipelineOut
	fail := func(err error) (pipelineOut, error) {
		out.result = roundResult{failed: true}
		return out, err
	}
	p.init.Pos = geom.Point{X: pos.X, Y: pos.Y}
	t0 := time.Now()
	round, err := p.net.RunConcurrentRound(p.init, p.resps, p.cfg)
	t1 := time.Now()
	out.times.sim = t1.Sub(t0)
	if err != nil {
		return fail(err)
	}
	if !round.DecodeOK {
		return fail(ranging.ErrDecodeFailed)
	}
	cir := round.Reception.CIR
	noise := cir.EstimateNoiseRMS()
	t2 := time.Now()
	responses, err := p.det.Detect(cir.Taps, noise)
	t3 := time.Now()
	out.times.detect = t3.Sub(t2)
	if err != nil {
		return fail(err)
	}
	if len(responses) == 0 {
		return fail(errors.New("no responses detected in the CIR"))
	}
	dTWR := round.TWRDistance()
	t4 := time.Now()
	ms, err := p.res.Resolve(responses, round.DecodedID, dTWR)
	t5 := time.Now()
	out.times.resolve = t5.Sub(t4)
	if err != nil {
		return fail(err)
	}
	out.taps = cir.Taps
	out.magnitude = cir.Magnitude()
	out.result.ms = measurements(ms, round)
	rangeObs := observations(out.result.ms)
	t6 := time.Now()
	fix, err := locate.Solve(rangeObs, locate.Config{})
	t7 := time.Now()
	out.times.solve = t7.Sub(t6)
	out.times.total = t7.Sub(t0)
	if err != nil {
		return fail(err)
	}
	out.result.fix = ranging.Position{X: fix.Position.X, Y: fix.Position.Y}
	out.result.failed = !finite(fix.Position.X, fix.Position.Y)
	out.locIters = fix.Iterations
	return out, nil
}

// measurements converts resolved measurements the way Session.Run does.
func measurements(ms []core.Measurement, round *sim.RoundResult) []ranging.Measurement {
	out := make([]ranging.Measurement, 0, len(ms))
	for _, m := range ms {
		r := ranging.Measurement{
			ResponderID: m.ID,
			Distance:    m.Distance,
			Slot:        m.Slot,
			Shape:       m.Shape,
			Amplitude:   cmplx.Abs(m.Amplitude),
			Anchor:      m.Anchor,
		}
		if truth, ok := round.TrueDistance[m.ID]; ok {
			r.TrueDistance, r.HasTruth = truth, true
		} else if m.ID == -1 && m.Anchor {
			if truth, ok := round.TrueDistance[round.DecodedID]; ok {
				r.TrueDistance, r.HasTruth = truth, true
			}
		}
		out = append(out, r)
	}
	return out
}

// observations converts measurements the way LocateFrom does.
func observations(ms []ranging.Measurement) []locate.RangeObservation {
	out := make([]locate.RangeObservation, 0, len(ms))
	for _, m := range ms {
		a, ok := museumAnchorMap[m.ResponderID]
		if !ok {
			continue
		}
		out = append(out, locate.RangeObservation{Anchor: geom.Point{X: a.X, Y: a.Y}, Distance: m.Distance})
	}
	return out
}

// replay times the calls a round makes below sim and core on copies of the
// round's inputs: the channel realizations of every link, the INIT and the
// aggregated receptions, and the reference detector's dsp calls on the
// round's CIR. It draws from its own RNG and radio, so the simulation's
// streams are untouched.
type replay struct {
	p        *pipeline
	rng      *rand.Rand
	radio    *dw1000.Radio
	up       *dsp.UpsamplePlan
	fbank    *dsp.MatchedFilterBank
	upBuf    []complex128
	scratch  []complex128
	arrivals []dw1000.Arrival

	realize, receive, receiveInit, upsample, transform, filterPeak callTimer
}

func newReplay(p *pipeline, seed uint64) (*replay, error) {
	rng := rand.New(rand.NewPCG(seed, 0x4e91))
	radio, err := dw1000.New("replay", dw1000.Config{PHY: p.net.PHY()}, rand.New(rand.NewPCG(seed, 0x4e92)))
	if err != nil {
		return nil, err
	}
	n := dw1000.CIRLength
	up, err := dsp.NewUpsamplePlan(n, core.DefaultUpsample)
	if err != nil {
		return nil, err
	}
	templates := make([][]complex128, p.bank.Len())
	for i := range templates {
		templates[i] = p.bank.Shape(i).Template(dw1000.SampleInterval / core.DefaultUpsample)
	}
	fbank, err := dsp.NewMatchedFilterBank(templates, n*core.DefaultUpsample)
	if err != nil {
		return nil, err
	}
	return &replay{
		p: p, rng: rng, radio: radio, up: up, fbank: fbank,
		upBuf:    make([]complex128, n*core.DefaultUpsample),
		scratch:  fbank.NewScratch(),
		arrivals: make([]dw1000.Arrival, len(p.resps)),
	}, nil
}

// run replays one round whose CIR taps the detector saw.
func (r *replay) run(taps []complex128) error {
	p := r.p
	env := p.net.Environment()
	for i, resp := range p.resps {
		t0 := time.Now()
		down, err := env.Realize(p.init.Pos, resp.Pos, r.rng)
		r.realize.since(t0)
		if err != nil {
			return err
		}
		t0 = time.Now()
		back, err := env.Realize(resp.Pos, p.init.Pos, r.rng)
		r.realize.since(t0)
		if err != nil {
			return err
		}
		t0 = time.Now()
		_, err = r.radio.Receive([]dw1000.Arrival{{SourceID: p.init.Name, Shape: p.init.Radio.Shape(), Taps: down}})
		r.receiveInit.since(t0)
		if err != nil {
			return err
		}
		slot, shape, err := p.plan.Assign(resp.ID)
		if err != nil {
			return err
		}
		r.arrivals[i] = dw1000.Arrival{
			SourceID: resp.Name,
			TXTime:   sim.Distance(p.init, resp)/channel.SpeedOfLight + airtime.DefaultResponseDelay + p.plan.ExtraDelay(slot),
			Shape:    p.bank.Shape(shape),
			Taps:     back,
		}
	}
	t0 := time.Now()
	_, err := r.radio.Receive(r.arrivals)
	r.receive.since(t0)
	if err != nil {
		return err
	}
	t0 = time.Now()
	up := r.up.Execute(r.upBuf, taps)
	r.upsample.since(t0)
	t0 = time.Now()
	err = r.fbank.Transform(up)
	r.transform.since(t0)
	if err != nil {
		return err
	}
	for t := 0; t < r.fbank.NumTemplates(); t++ {
		t0 = time.Now()
		_, _, _, err := r.fbank.FilterPeak(r.scratch, t, nil)
		r.filterPeak.since(t0)
		if err != nil {
			return err
		}
	}
	return nil
}

func runSessionTraced(cfg config) (*outcome, error) {
	sz := cfg.sizes
	b, err := runSessionLoop(cfg, halves(cfg.seconds), sz.sessionCheckRounds)
	if err != nil {
		return nil, err
	}
	w := newWalk(cfg.seed)
	p, err := newPipeline(cfg.seed, w.pos)
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	p.det.SetRecorder(reg)
	p.net.SetRecorder(reg)
	rp, err := newReplay(p, cfg.seed)
	if err != nil {
		return nil, err
	}
	var (
		sum       stepTimes
		self      time.Duration
		counted   obs.Snapshot
		locIters  int
		got       []roundResult
		replayErr error
	)
	round := 0
	l := runLoop(halves(cfg.seconds), max(sz.sessionCountRounds, sz.sessionCheckRounds), 1, func() (time.Duration, int, int) {
		out, err := p.run(w.next())
		k := round
		round++
		if k < sz.sessionCheckRounds {
			got = append(got, out.result)
		}
		if k < sz.sessionCountRounds {
			locIters += out.locIters
			if k == sz.sessionCountRounds-1 {
				counted = reg.Snapshot()
			}
		}
		if err != nil || out.result.failed {
			return out.times.total, 0, 1
		}
		sum.total += out.times.total
		sum.sim += out.times.sim
		sum.detect += out.times.detect
		sum.resolve += out.times.resolve
		sum.solve += out.times.solve
		self += out.times.self()
		if err := rp.run(out.taps); err != nil && replayErr == nil {
			replayErr = err
		}
		return out.times.total, 1, 0
	})
	if replayErr != nil {
		return nil, fmt.Errorf("session replay: %w", replayErr)
	}
	if err := checkComposed(b.first, got); err != nil {
		return nil, err
	}
	// Times per op, normalized to the reference host speed like every
	// time the benchmark reports.
	speed := l.cal.speed()
	perOp := func(d time.Duration) float64 { return ratio(us(d), float64(l.ops)) * speed }
	meanUS := func(t callTimer) float64 { return t.meanUS() * speed }
	k := float64(sz.sessionCountRounds)
	iters, _ := counted.HistogramByName(core.MetricDetectIterations)
	refine, _ := counted.HistogramByName(core.MetricDetectRefineSteps)
	accepted, _ := counted.HistogramByName(core.MetricDetectResponses)
	values := map[string]float64{
		"ranging.round_us":        perOp(sum.total),
		"sim.round_us":            perOp(sum.sim),
		"core.detect_us":          perOp(sum.detect),
		"core.resolve_us":         perOp(sum.resolve),
		"locate.solve_us":         perOp(sum.solve),
		"ranging.self_us":         perOp(self),
		"channel.realize_us":      meanUS(rp.realize),
		"dw1000.receive_us":       meanUS(rp.receive),
		"dw1000.receive_init_us":  meanUS(rp.receiveInit),
		"sim.replay_coverage":     ratio(us(rp.realize.total+rp.receiveInit.total+rp.receive.total), us(sum.sim)),
		"dsp.upsample_us":         meanUS(rp.upsample),
		"dsp.bank_transform_us":   meanUS(rp.transform),
		"dsp.filter_peak_us":      meanUS(rp.filterPeak),
		"detector.iterations":     iters.Sum / k,
		"detector.template_evals": float64(counted.CounterValue(core.MetricDetectTemplateEvals)) / k,
		"detector.refine_steps":   refine.Sum / k,
		"detector.useful_ratio":   ratio(accepted.Sum, iters.Sum),
		"dsp.upsample_execs":      float64(counted.CounterValue(core.MetricUpsampleExecs)) / k,
		"dsp.bank_transforms":     float64(counted.CounterValue(core.MetricBankTransforms)) / k,
		"sim.frames_on_air":       float64(counted.CounterValue(sim.MetricFramesOnAir)) / k,
		"sim.receptions":          float64(counted.CounterValue(sim.MetricReceptions)) / k,
		"locate.iterations":       float64(locIters) / k,
		"trace_overhead":          traceOverhead(b.loop.opsPerSecond(), l.opsPerSecond()),
	}
	return l.tracedOutcome(b.loop, values), nil
}
