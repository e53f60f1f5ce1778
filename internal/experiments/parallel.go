package experiments

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
)

// parallelMap runs fn for every index in [0, n) across a bounded worker
// pool and returns the results in index order. Every trial error (not
// just the first) is reported after all workers finish, joined in trial
// index order — the message leads with the lowest failing index — each
// wrapped as "trial %d: ...", keeping the result slice deterministic. A
// panicking trial is recovered into an error instead of killing the
// process. Every trial must derive its randomness from its index — never
// from shared state — so the parallel run is bit-identical to a
// sequential one.
func parallelMap[T any](env *Env, n int, fn func(i int) (T, error)) ([]T, error) {
	return parallelMapWith(env, n,
		func() (struct{}, error) { return struct{}{}, nil },
		func(_ struct{}, i int) (T, error) { return fn(i) })
}

// parallelMapWith is parallelMap with per-worker state: each worker
// goroutine builds its own S once via newWorker and hands it to every
// trial it runs. This is the natural home for values that are cheap to
// build but not safe for concurrent use — above all a core.Detector,
// whose cached FFT plans and scratch buffers must not be shared across
// goroutines. Worker state must not influence results (trials still
// derive everything from their index), so scheduling stays invisible.
//
// When env records (a Recorder or a Progress sink), every trial is timed
// and ticks the campaign meter once, driving per-trial metrics and the
// ProgressFunc; with a nil env the meter is nil and inert.
func parallelMapWith[S, T any](env *Env, n int, newWorker func() (S, error), fn func(s S, i int) (T, error)) ([]T, error) {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers < 1 {
		workers = 1
	}
	states := make([]S, workers)
	for w := range states {
		s, err := newWorker()
		if err != nil {
			return nil, fmt.Errorf("worker %d: %w", w, err)
		}
		states[w] = s
	}
	m := newMeter(env, n)
	results := make([]T, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(state S) {
			defer wg.Done()
			for i := range next {
				errs[i] = m.timeTrial(func() (err error) {
					results[i], err = runTrial(state, i, fn)
					return err
				})
			}
		}(states[w])
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	m.finish()
	// Join every failure in index order so no trial error is masked;
	// errors.Is still matches each underlying cause.
	var failures []error
	for i, err := range errs {
		if err != nil {
			failures = append(failures, fmt.Errorf("trial %d: %w", i, err))
		}
	}
	if len(failures) > 0 {
		return nil, errors.Join(failures...)
	}
	return results, nil
}

// runTrial invokes one trial, converting a panic into an error so a
// campaign reports which trial blew up instead of crashing the process.
func runTrial[S, T any](state S, i int, fn func(s S, i int) (T, error)) (result T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return fn(state, i)
}
