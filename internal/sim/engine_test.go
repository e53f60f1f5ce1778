package sim

import (
	"testing"
)

func TestEngineRunsInTimeOrder(t *testing.T) {
	var e engine
	var order []int
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(e.Schedule(3, func() { order = append(order, 3) }))
	must(e.Schedule(1, func() { order = append(order, 1) }))
	must(e.Schedule(2, func() { order = append(order, 2) }))
	if n := e.RunUntil(3); n != 3 {
		t.Fatalf("ran %d events", n)
	}
	for i, want := range []int{1, 2, 3} {
		if order[i] != want {
			t.Fatalf("order %v", order)
		}
	}
	if e.Now() != 3 {
		t.Fatalf("clock at %g", e.Now())
	}
}

func TestEngineFIFOAmongEqualTimes(t *testing.T) {
	var e engine
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		if err := e.Schedule(1, func() { order = append(order, i) }); err != nil {
			t.Fatal(err)
		}
	}
	if n := e.RunUntil(1); n != 10 {
		t.Fatalf("ran %d events", n)
	}
	for i := range order {
		if order[i] != i {
			t.Fatalf("equal-time events not FIFO: %v", order)
		}
	}
}

func TestEngineEventsScheduleEvents(t *testing.T) {
	var e engine
	var got []float64
	if err := e.Schedule(1, func() {
		got = append(got, e.Now())
		if err := e.Schedule(e.Now()+0.5, func() { got = append(got, e.Now()) }); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if n := e.RunUntil(1.5); n != 2 {
		t.Fatalf("ran %d events", n)
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 1.5 {
		t.Fatalf("got %v", got)
	}
}

func TestEngineRejectsPastAndNil(t *testing.T) {
	var e engine
	if err := e.Schedule(1, func() {}); err != nil {
		t.Fatal(err)
	}
	e.RunUntil(1)
	if err := e.Schedule(0.5, func() {}); err == nil {
		t.Fatal("past event accepted")
	}
	if err := e.Schedule(2, nil); err == nil {
		t.Fatal("nil event accepted")
	}
}

func TestEngineRunUntil(t *testing.T) {
	var e engine
	var count int
	for _, at := range []float64{1, 2, 3, 4} {
		if err := e.Schedule(at, func() { count++ }); err != nil {
			t.Fatal(err)
		}
	}
	if n := e.RunUntil(2.5); n != 2 {
		t.Fatalf("ran %d events", n)
	}
	if e.Now() != 2.5 {
		t.Fatalf("clock at %g, want deadline", e.Now())
	}
	if e.Pending() != 2 {
		t.Fatalf("%d pending", e.Pending())
	}
	if n := e.RunUntil(4); n != 2 || e.Pending() != 0 {
		t.Fatalf("ran %d events, %d pending", n, e.Pending())
	}
	if count != 4 {
		t.Fatalf("total %d events", count)
	}
}

// TestEngineRunUntilDeadlineTies pins the deadline-boundary contract:
// events scheduled exactly at the deadline run, equal-time events run in
// scheduling (seq) order — including events they themselves schedule at
// the deadline — and a later RunUntil resumes without re-advancing the
// clock past work that is still pending.
func TestEngineRunUntilDeadlineTies(t *testing.T) {
	var e engine
	var order []int
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(e.Schedule(2, func() { order = append(order, 0) }))
	must(e.Schedule(2, func() {
		order = append(order, 1)
		// An equal-time event scheduled *at* the deadline from within the
		// deadline must still run in this RunUntil call, after all
		// previously scheduled ties.
		must(e.Schedule(2, func() { order = append(order, 3) }))
	}))
	must(e.Schedule(2, func() { order = append(order, 2) }))
	must(e.Schedule(2.5, func() { order = append(order, 99) }))
	if n := e.RunUntil(2); n != 4 {
		t.Fatalf("ran %d events, want 4 (deadline ties incl. nested)", n)
	}
	for i, want := range []int{0, 1, 2, 3} {
		if order[i] != want {
			t.Fatalf("deadline ties out of seq order: %v", order)
		}
	}
	if e.Now() != 2 {
		t.Fatalf("clock at %g, want 2", e.Now())
	}
	// Resuming with the same deadline is a no-op that must not advance
	// the clock or drop the pending later event.
	if n := e.RunUntil(2); n != 0 {
		t.Fatalf("resumed RunUntil ran %d events, want 0", n)
	}
	if e.Now() != 2 {
		t.Fatalf("resumed RunUntil re-advanced clock to %g", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("%d pending, want 1", e.Pending())
	}
	// An earlier deadline than the current clock runs nothing and never
	// rewinds.
	if n := e.RunUntil(1); n != 0 {
		t.Fatalf("past-deadline RunUntil ran %d events", n)
	}
	if e.Now() != 2 {
		t.Fatalf("past-deadline RunUntil moved clock to %g", e.Now())
	}
	if n := e.RunUntil(3); n != 1 || order[len(order)-1] != 99 {
		t.Fatalf("resume ran %d events, order %v", n, order)
	}
}

// TestEngineScheduleSteadyStateAllocs asserts the value-typed heap
// contract: once the queue has grown to its high-water mark, a
// schedule/run cycle allocates nothing (the old *event-per-Schedule heap
// allocated one node per call).
func TestEngineScheduleSteadyStateAllocs(t *testing.T) {
	var e engine
	fn := func() {}
	// Warm the backing slice to the high-water mark.
	for i := 0; i < 64; i++ {
		if err := e.Schedule(e.Now()+1, fn); err != nil {
			t.Fatal(err)
		}
	}
	e.RunUntil(e.Now() + 1)
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			if err := e.Schedule(e.Now()+float64(1+i%7), fn); err != nil {
				t.Fatal(err)
			}
		}
		if n := e.RunUntil(e.Now() + 7); n != 64 {
			t.Fatalf("ran %d events", n)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state schedule/run cycle allocates %.1f times, want 0", allocs)
	}
}

// BenchmarkEngineSchedule measures the per-event cost of a steady-state
// schedule/pop cycle through a warm queue.
func BenchmarkEngineSchedule(b *testing.B) {
	var e engine
	fn := func() {}
	for i := 0; i < 1024; i++ {
		if err := e.Schedule(e.Now()+float64(1+i%31), fn); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Schedule(e.Now()+1, fn); err != nil {
			b.Fatal(err)
		}
		e.RunUntil(e.Now() + 1) // one push, one pop: a warm steady state
	}
}
