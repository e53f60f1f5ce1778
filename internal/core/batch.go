package core

import (
	"fmt"
	"runtime"
	"strconv"
	"sync/atomic"

	"github.com/uwb-sim/concurrent-ranging/internal/dw1000"
	"github.com/uwb-sim/concurrent-ranging/internal/obs"
	"github.com/uwb-sim/concurrent-ranging/internal/obs/trace"
	"github.com/uwb-sim/concurrent-ranging/internal/pulse"
)

// Metric names the batch engine records through its Recorder, alongside
// the per-Detect detector.* metrics its worker detectors emit.
const (
	// MetricBatchBatches counts DetectBatch invocations.
	MetricBatchBatches = "detector.batch_calls"
	// MetricBatchCIRs counts CIRs submitted across all batches.
	MetricBatchCIRs = "detector.batch_cirs"
	// MetricBatchErrors counts per-item failures inside batches.
	MetricBatchErrors = "detector.batch_errors"
	// MetricBatchGroups is the per-batch distinct-CIR-length group count.
	MetricBatchGroups = "detector.batch_groups"
	// MetricBatchWorkerItems counts items processed per worker
	// ({worker="i"}), so a dashboard can see the static round-robin
	// partition's balance. The partition depends only on batch layout and
	// pool size, so the per-worker values are deterministic. Recorded
	// only when the Recorder supports labeled series (obs.VecSource).
	MetricBatchWorkerItems = "detector.batch_worker_items"
)

// BatchInput is one CIR to detect on: the taps (sampled at the bank's
// interval) and the per-tap complex noise RMS feeding the detection
// threshold — exactly Detect's arguments.
type BatchInput struct {
	Taps     []complex128
	NoiseRMS float64
}

// BatchResult is one input's outcome. Exactly one of Responses/Err is
// meaningful: a failed item has Err set and no responses, and its failure
// never corrupts neighboring items. Responses slices alias engine-owned
// arenas and are valid only until the next DetectBatch (or Close) —
// copy them out to keep them longer.
type BatchResult struct {
	Responses []Response
	Err       error
}

// batchShared is the per-CIR-length search bank a batch shares across its
// workers. Each worker installs a clone (sharing the read-only plans,
// template spectra and output kernels, owning the mutable signal state),
// so the O(templates × FFT) setup is paid once per length instead of once
// per worker.
type batchShared struct {
	bank searchBank
	err  error // the bank build failed; every item of this length reports it
}

// batchGroup is one same-length run of the current batch inside the order
// index: items order[lo : lo+fill].
type batchGroup struct {
	n     int // CIR length in taps
	state int // index into BatchDetector.states
	lo    int // segment start in order
	count int // planned segment capacity
	fill  int // items actually enqueued (failed items are excluded)
}

// batchWorker is one worker's execution state: lazily built per-length
// detectors (each on a clone of its length's shared bank) and the response
// arena its items' results point into.
type batchWorker struct {
	idx   int
	start chan struct{}
	dets  []*Detector // parallel to BatchDetector.states; nil until first use
	resp  []Response  // arena; batch results alias it until the next batch
}

// BatchDetector amortizes detection across many CIRs. It groups
// same-length inputs so FFT-plan setup and template spectra are built
// once per length and shared read-only across a fixed worker pool; each
// worker owns its detectors' mutable scratch, so the steady-state hot
// path allocates nothing. Items are partitioned round-robin within each
// group by a static rule, and every item's result depends only on its
// input, so DetectBatch output is bit-identical to looping Detect —
// regardless of worker count or scheduling.
//
// A BatchDetector is not safe for concurrent use: one DetectBatch at a
// time, from one goroutine (the call itself fans out internally).
type BatchDetector struct {
	proto   *Detector // configuration and templates only; never detects
	workers []*batchWorker
	done    chan struct{}
	closed  bool

	states   []*batchShared
	lenState map[int]int // CIR length → states index
	lenGroup map[int]int // CIR length → groups index, current batch only

	cur     []BatchInput
	res     []BatchResult
	results []BatchResult // backing storage reused across batches
	groups  []batchGroup
	order   []int32

	rec obs.Recorder
	// workerItems holds the pre-resolved per-worker labeled counter
	// children (one per pool slot; nil unless rec supports labeled
	// series), so workers flush their item tallies without vec lookups.
	workerItems []*obs.Counter
	flight      *trace.Tracer
	onItem      func(done int)
	doneN       atomic.Int64
}

// NewBatchDetector builds a batch engine over the given bank and detector
// configuration. workers bounds the pool; 0 means GOMAXPROCS. The worker
// detectors run with Workers: 1 — the batch dimension is the parallelism.
func NewBatchDetector(bank *pulse.Bank, cfg DetectorConfig, workers int) (*BatchDetector, error) {
	if workers < 0 {
		return nil, fmt.Errorf("core: negative batch workers %d", workers)
	}
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	proto, err := newDetector(bank, cfg)
	if err != nil {
		return nil, err
	}
	proto.cfg.Workers = 1 // worker detectors are copies of the prototype
	b := &BatchDetector{
		proto:    proto,
		workers:  make([]*batchWorker, workers),
		done:     make(chan struct{}),
		lenState: make(map[int]int),
		lenGroup: make(map[int]int),
	}
	for i := range b.workers {
		b.workers[i] = &batchWorker{idx: i, start: make(chan struct{})}
	}
	// Build the DW1000 accumulator window's bank up front, as NewDetector
	// does.
	if s := b.states[b.stateFor(dw1000.CIRLength)]; s.err != nil {
		return nil, s.err
	}
	// Worker 0 runs inline in DetectBatch's goroutine; only the rest get
	// serve loops.
	for _, w := range b.workers[1:] {
		go b.serve(w)
	}
	return b, nil
}

// Workers returns the resolved worker-pool size.
func (b *BatchDetector) Workers() int { return len(b.workers) }

// SetRecorder attaches an instrumentation sink to the engine and every
// worker detector; nil (the default) disables recording. Like
// Detector.SetRecorder this is not synchronized: set it before the first
// DetectBatch.
func (b *BatchDetector) SetRecorder(r obs.Recorder) {
	b.rec = r
	b.workerItems = nil
	if vs, ok := r.(obs.VecSource); ok {
		vec := vs.CounterVec(MetricBatchWorkerItems, "worker")
		b.workerItems = make([]*obs.Counter, len(b.workers))
		for i := range b.workerItems {
			b.workerItems[i] = vec.With(strconv.Itoa(i))
		}
	}
	b.eachWorkerDetector(func(d *Detector) { d.SetRecorder(r) })
}

// SetFlightRecorder attaches the decision-level flight recorder to the
// engine and every worker detector; nil disables it. Set it before the
// first DetectBatch.
func (b *BatchDetector) SetFlightRecorder(tr *trace.Tracer) {
	b.flight = tr
	b.eachWorkerDetector(func(d *Detector) { d.SetFlightRecorder(tr) })
}

// SetProgress installs a per-item completion callback: fn(done) is called
// once per worker-processed item with the number of items finished so far
// in the current batch. It may run concurrently from workers and must be
// cheap. Set it before the first DetectBatch.
func (b *BatchDetector) SetProgress(fn func(done int)) { b.onItem = fn }

func (b *BatchDetector) eachWorkerDetector(fn func(*Detector)) {
	for _, w := range b.workers {
		for _, d := range w.dets {
			if d != nil {
				fn(d)
			}
		}
	}
}

// Close shuts the worker goroutines down. The engine must not be used
// afterwards; results from the last batch remain readable. Idempotent.
func (b *BatchDetector) Close() {
	if b.closed {
		return
	}
	b.closed = true
	for _, w := range b.workers[1:] {
		close(w.start)
	}
}

// DetectBatch runs search and subtract on every input and returns one
// result per input, in input order. The returned slice and the response
// slices inside it are engine-owned and valid only until the next
// DetectBatch or Close. Per-item failures (empty CIR, bad noise RMS, a
// non-finite tap or noise RMS, a length whose bank cannot be built, a
// panicking item) are reported in that item's Err; the batch itself never
// fails.
func (b *BatchDetector) DetectBatch(inputs []BatchInput) []BatchResult {
	if cap(b.results) < len(inputs) {
		b.results = make([]BatchResult, len(inputs))
	}
	res := b.results[:len(inputs)]
	for i := range res {
		res[i] = BatchResult{}
	}
	b.res, b.cur = res, inputs
	b.plan(inputs, res)
	span := b.beginBatchSpan(len(inputs))
	b.doneN.Store(0)
	for _, w := range b.workers[1:] {
		w.start <- struct{}{}
	}
	b.runWorker(b.workers[0])
	for range b.workers[1:] {
		<-b.done
	}
	b.cur = nil
	if b.rec != nil || span != nil {
		b.endBatch(span, res)
	}
	return res
}

// plan groups the batch's inputs by CIR length and lays the runnable item
// indices out group-contiguously in b.order. Items that fail up front
// (empty taps, a length whose shared state cannot be built) get their
// error set here and are excluded from the order.
func (b *BatchDetector) plan(inputs []BatchInput, res []BatchResult) {
	b.groups = b.groups[:0]
	clear(b.lenGroup)
	for _, in := range inputs {
		n := len(in.Taps)
		if n == 0 {
			continue
		}
		gi, ok := b.lenGroup[n]
		if !ok {
			gi = len(b.groups)
			b.groups = append(b.groups, batchGroup{n: n, state: b.stateFor(n)})
			b.lenGroup[n] = gi
		}
		b.groups[gi].count++
	}
	total := 0
	for gi := range b.groups {
		g := &b.groups[gi]
		g.lo, g.fill = total, 0
		total += g.count
	}
	if cap(b.order) < total {
		b.order = make([]int32, total)
	}
	b.order = b.order[:total]
	for i, in := range inputs {
		n := len(in.Taps)
		if n == 0 {
			res[i].Err = fmt.Errorf("core: empty CIR")
			continue
		}
		g := &b.groups[b.lenGroup[n]]
		if s := b.states[g.state]; s.err != nil {
			res[i].Err = fmt.Errorf("core: %d-tap batch group: %w", n, s.err)
			continue
		}
		b.order[g.lo+g.fill] = int32(i)
		g.fill++
	}
}

// stateFor returns (building and caching on demand) the states index for
// CIRs of n taps. Build failures are cached too, so every item of a bad
// length reports the same error without rebuilding. A bank whose search
// keeps its outputs gets its output kernels here, from worker 0's
// detector for the length, before any other worker clones the bank.
func (b *BatchDetector) stateFor(n int) int {
	if si, ok := b.lenState[n]; ok {
		return si
	}
	bank, err := b.proto.newSearchBank(n)
	si := len(b.states)
	st := &batchShared{bank: bank, err: err}
	b.states = append(b.states, st)
	b.lenState[n] = si
	if err == nil && b.proto.tracksOutputs(bank) {
		d, err := b.workerDetector(b.workers[0], si)
		if err != nil {
			st.err = err
		} else {
			st.bank.kern = d.kern
		}
	}
	return si
}

// serve is a non-inline worker's loop: one runWorker per batch.
func (b *BatchDetector) serve(w *batchWorker) {
	for range w.start {
		b.runWorker(w)
		b.done <- struct{}{}
	}
}

// runWorker processes this worker's statically assigned share of the
// current batch: within each group segment, items order[g.lo+idx],
// order[g.lo+idx+W], ... The partition depends only on the batch layout
// and the pool size — never on timing — and each item's result depends
// only on its input, so scheduling cannot reorder or change anything.
func (b *BatchDetector) runWorker(w *batchWorker) {
	w.resp = w.resp[:0]
	W := len(b.workers)
	items := 0
	for gi := range b.groups {
		g := &b.groups[gi]
		if g.fill == 0 {
			continue
		}
		det, err := b.workerDetector(w, g.state)
		for k := g.lo + w.idx; k < g.lo+g.fill; k += W {
			i := int(b.order[k])
			items++
			if err != nil {
				b.res[i].Err = err
				b.itemDone()
				continue
			}
			b.runItem(w, det, i)
		}
	}
	// One flush per batch per worker, through the pre-resolved child. The
	// tally is a function of the static partition alone, so the labeled
	// series stays deterministic.
	if ctr := b.workerItemCounter(w.idx); ctr != nil {
		ctr.Add(int64(items))
	}
}

// workerItemCounter returns the pre-resolved per-worker item counter, or
// nil when labeled recording is off (the shape nilinstr can check).
func (b *BatchDetector) workerItemCounter(idx int) *obs.Counter {
	if b.workerItems == nil {
		return nil
	}
	return b.workerItems[idx]
}

// runItem detects one input into the worker's arena, converting a panic
// into that item's error (with the arena rolled back) so one bad item
// cannot take the batch down or corrupt its neighbors.
func (b *BatchDetector) runItem(w *batchWorker, det *Detector, i int) {
	base := len(w.resp)
	defer func() {
		if r := recover(); r != nil {
			w.resp = w.resp[:base]
			b.res[i] = BatchResult{Err: fmt.Errorf("core: batch item %d panicked: %v", i, r)}
		}
		b.itemDone()
	}()
	in := b.cur[i]
	out, err := det.detectAppend(w.resp, in.Taps, in.NoiseRMS)
	w.resp = out
	if err != nil {
		b.res[i].Err = err
		return
	}
	// Full-capacity slice: appends for later items can never write into
	// this item's window.
	b.res[i].Responses = out[base:len(out):len(out)]
}

func (b *BatchDetector) itemDone() {
	if b.onItem != nil {
		b.onItem(int(b.doneN.Add(1)))
	}
}

// workerDetector returns (lazily building) this worker's detector for the
// given shared state: a copy of the prototype installed on a clone of the
// state's bank, so plan setup and template spectra stay shared while all
// mutable scratch is worker-owned.
func (b *BatchDetector) workerDetector(w *batchWorker, si int) (*Detector, error) {
	for len(w.dets) <= si {
		w.dets = append(w.dets, nil)
	}
	if d := w.dets[si]; d != nil {
		return d, nil
	}
	d := *b.proto
	if err := d.install(b.states[si].bank.clone()); err != nil {
		return nil, err
	}
	if b.rec != nil {
		d.SetRecorder(b.rec)
	}
	if b.flight != nil {
		d.SetFlightRecorder(b.flight)
	}
	w.dets[si] = &d
	return &d, nil
}

// beginBatchSpan opens the batch's root span on the flight recorder, or
// returns nil when tracing is off or the root was sampled out.
func (b *BatchDetector) beginBatchSpan(cirs int) *trace.Span {
	if b.flight == nil {
		return nil
	}
	sp := b.flight.Begin(trace.SpanDetectBatch, trace.Attrs{
		"cirs":    cirs,
		"groups":  len(b.groups),
		"workers": len(b.workers),
	})
	if !sp.Recording() {
		return nil
	}
	return sp
}

// endBatch tallies the finished batch into the recorder and span. Only
// reached with a recorder or live span attached (nilinstr contract).
func (b *BatchDetector) endBatch(span *trace.Span, res []BatchResult) {
	failed, responses := 0, 0
	for i := range res {
		if res[i].Err != nil {
			failed++
		}
		responses += len(res[i].Responses)
	}
	if rec := b.rec; rec != nil {
		rec.Count(MetricBatchBatches, 1)
		rec.Count(MetricBatchCIRs, int64(len(res)))
		rec.Count(MetricBatchErrors, int64(failed))
		rec.Observe(MetricBatchGroups, float64(len(b.groups)))
	}
	if span != nil {
		span.EndWith(trace.Attrs{
			"errors":    failed,
			"responses": responses,
		})
	}
}
