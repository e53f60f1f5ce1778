package main

import (
	"math"
	"runtime"
	"slices"
	"sync"
	"time"
)

// request is one call of the closed-loop client. It returns the host time
// of its timed part and how many of its ops succeeded and failed; checking
// and bookkeeping happen outside the timed part.
type request func() (elapsed time.Duration, ok, failed int)

// loop is the tally of one closed-loop measurement. A request with a
// failed op contributes neither time nor a latency sample.
type loop struct {
	attempted, ops, failed int64
	// busy is the host time spent in fully successful requests.
	busy time.Duration
	// perOpMS holds one sample per successful request: its time divided
	// by its op count, in milliseconds.
	perOpMS []float64
	// allocBytes is the heap allocated while the loop ran.
	allocBytes uint64
	// cal measured the host's speed between requests.
	cal calibration
}

// runLoop issues requests back to back, one at a time, until d has passed
// and at least minRequests requests were made. After each request it runs
// the calibration kernel on threads goroutines for a fiftieth of the
// request's time.
func runLoop(d time.Duration, minRequests, threads int, req request) *loop {
	l := &loop{perOpMS: make([]float64, 0, 1<<14), cal: calibration{threads: threads}}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for n := 0; n < minRequests || time.Since(start) < d; n++ {
		el, ok, bad := req()
		l.cal.run(el / 50)
		l.attempted += int64(ok + bad)
		if bad > 0 {
			l.failed += int64(bad)
			continue
		}
		l.ops += int64(ok)
		l.busy += el
		l.perOpMS = append(l.perOpMS, float64(el.Nanoseconds())/1e6/float64(ok))
	}
	runtime.ReadMemStats(&after)
	l.allocBytes = after.TotalAlloc - before.TotalAlloc
	return l
}

// opsPerSecond is the completed-op throughput over the successful
// requests' host time, normalized to the reference host speed.
func (l *loop) opsPerSecond() float64 {
	if l.busy <= 0 {
		return 0
	}
	return float64(l.ops) / l.busy.Seconds() / l.cal.speed()
}

// endToEnd fills the timing and memory metrics every workload reports;
// times are normalized to the reference host speed.
func (l *loop) endToEnd(values map[string]float64, heapMB, setupS float64) {
	speed := l.cal.speed()
	values["ops_per_s"] = l.opsPerSecond()
	values["op_ms_p50"] = median(l.perOpMS) * speed
	values["op_ms_p99"] = tailLatency(l.perOpMS) * speed
	values["alloc_b_per_op"] = float64(l.allocBytes) / float64(max(l.attempted, 1))
	values["heap_mb"] = heapMB
	values["setup_s"] = setupS // medianSetup normalized it with its own calibration
}

// outcome wraps a bare loop's metric values.
func (l *loop) outcome(values map[string]float64) *outcome {
	return &outcome{values: values, attempted: l.attempted, failed: l.failed, samples: len(l.perOpMS), speed: l.cal.speed()}
}

// tracedOutcome wraps a traced loop's metric values; the run's op tallies
// include the bare loop that preceded it.
func (l *loop) tracedOutcome(bare *loop, values map[string]float64) *outcome {
	out := l.outcome(values)
	out.attempted += bare.attempted
	out.failed += bare.failed
	return out
}

// referenceKernelRate is the calibration kernel's rate, in runs per second
// per thread, on the reference host: a 2-vCPU Intel Xeon VM at 2.0 GHz.
const referenceKernelRate = 2600

// calibration measures the host's current speed with a fixed kernel that
// runs no repository code. A shared host's speed drifts by tens of percent
// over minutes, which no amount of work inside one run averages out;
// scaling every time by the kernel's rate measured between the same run's
// requests cancels that drift, while a change to the repository's code
// moves the workload and not the kernel.
type calibration struct {
	threads int
	runs    float64
	seconds float64 // thread-seconds spent in the kernel
}

// run executes the kernel on c.threads goroutines for about budget each.
func (c *calibration) run(budget time.Duration) {
	threads := max(c.threads, 1)
	runs := make([]float64, threads)
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := 1; i < threads; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			runs[i] = calibrationKernel(t0, budget)
		}(i)
	}
	runs[0] = calibrationKernel(t0, budget)
	wg.Wait()
	el := time.Since(t0).Seconds()
	for _, r := range runs {
		c.runs += r
	}
	c.seconds += el * float64(threads)
}

// speed is the host's speed relative to the reference host (1 when the
// kernel never ran).
func (c *calibration) speed() float64 {
	if c.runs == 0 || c.seconds == 0 {
		return 1
	}
	return c.runs / c.seconds / referenceKernelRate
}

// calibrationKernel repeats a 2048-point complex FFT, with its twiddles
// computed in place, until budget has passed since t0; it returns the
// number of FFTs run.
func calibrationKernel(t0 time.Time, budget time.Duration) float64 {
	var v [2048]complex128
	runs := 0.0
	for {
		for i := range v {
			v[i] = complex(float64(i%7), float64(i%5))
		}
		fftInPlace(v[:])
		runs++
		if time.Since(t0) >= budget {
			return runs
		}
	}
}

// fftInPlace is an iterative radix-2 FFT (len(v) a power of two).
func fftInPlace(v []complex128) {
	n := len(v)
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			v[i], v[j] = v[j], v[i]
		}
	}
	for size := 2; size <= n; size <<= 1 {
		step := -2 * math.Pi / float64(size)
		for start := 0; start < n; start += size {
			for k := 0; k < size/2; k++ {
				w := complex(math.Cos(step*float64(k)), math.Sin(step*float64(k)))
				a, b := v[start+k], v[start+k+size/2]*w
				v[start+k], v[start+k+size/2] = a+b, a-b
			}
		}
	}
}

// liveHeapMB collects garbage and returns the live heap in megabytes.
func liveHeapMB() float64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// tailLatency returns the nearest-rank 99th percentile of v when at least
// ten samples lie beyond it. With fewer samples it returns the highest
// percentile that still has ten beyond it, so one slow request cannot set
// the figure (the maximum when v has fewer than eleven samples).
func tailLatency(v []float64) float64 {
	n := len(v)
	if n == 0 {
		return 0
	}
	i := int(math.Ceil(0.99*float64(n))) - 1
	if n-1-i < 10 {
		i = n - 11
	}
	if i < 0 {
		i = n - 1
	}
	s := slices.Clone(v)
	slices.Sort(s)
	return s[i]
}

// median returns the middle value of v (the mean of the two middle values
// for an even count; 0 for no values).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianSetup runs build n times after a garbage collection each and
// returns the median time in seconds, normalized to the reference host
// speed. After each build the calibration kernel runs on threads
// goroutines for as long as the build took, so the speed it measures is
// the host's speed during set-up, not during the timed loop that follows.
func medianSetup(n, threads int, build func() error) (float64, error) {
	times := make([]float64, 0, n)
	cal := calibration{threads: threads}
	for i := 0; i < max(n, 1); i++ {
		runtime.GC()
		t0 := time.Now()
		if err := build(); err != nil {
			return 0, err
		}
		el := time.Since(t0)
		times = append(times, el.Seconds())
		cal.run(el)
	}
	return median(times) * cal.speed(), nil
}

// callTimer accumulates the host time of repeated calls into one layer.
type callTimer struct {
	total time.Duration
	n     int
}

// since adds one call that started at t0.
func (c *callTimer) since(t0 time.Time) {
	c.total += time.Since(t0)
	c.n++
}

// meanUS is the mean time per call in microseconds.
func (c *callTimer) meanUS() float64 { return ratio(us(c.total), float64(c.n)) }

// us converts a duration to microseconds.
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// traceOverhead is 1 − traced throughput / bare throughput.
func traceOverhead(bare, traced float64) float64 {
	if bare == 0 {
		return 0
	}
	return 1 - traced/bare
}

// halves splits a traced run's time between its bare and traced parts.
func halves(seconds float64) time.Duration {
	return time.Duration(seconds / 2 * float64(time.Second))
}

func duration(seconds float64) time.Duration {
	return time.Duration(seconds * float64(time.Second))
}

func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}
