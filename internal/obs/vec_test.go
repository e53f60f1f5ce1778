package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestCounterVecResolvesStableChildren(t *testing.T) {
	reg := NewRegistry()
	vec := reg.CounterVec("rpc.calls", "method", "code")
	a := vec.With("get", "200")
	b := vec.With("get", "200")
	if a != b {
		t.Fatal("same label values resolved two different children")
	}
	a.Add(3)
	vec.With("put", "500").Inc()

	snap := reg.Snapshot()
	series := snap.CounterSeries("rpc.calls")
	if len(series) != 2 {
		t.Fatalf("got %d series, want 2: %+v", len(series), series)
	}
	// Labels come back key-sorted regardless of declaration order.
	want0 := []Label{{Key: "code", Value: "200"}, {Key: "method", Value: "get"}}
	if fmt.Sprint(series[0].Labels) != fmt.Sprint(want0) || series[0].Value != 3 {
		t.Fatalf("series[0] = %+v, want labels %+v value 3", series[0], want0)
	}
	if snap.CounterValue("rpc.calls") != 4 {
		t.Fatalf("family sum = %d, want 4", snap.CounterValue("rpc.calls"))
	}
}

func TestVecDeclarationPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		fn()
	}
	reg := NewRegistry()
	mustPanic("no keys", func() { reg.CounterVec("x") })
	mustPanic("empty key", func() { reg.CounterVec("x", "") })
	mustPanic("duplicate key", func() { reg.CounterVec("x", "a", "a") })
	reg.CounterVec("y", "a", "b")
	mustPanic("re-declared reordered", func() { reg.CounterVec("y", "b", "a") })
	mustPanic("re-declared different arity", func() { reg.CounterVec("y", "a") })
	mustPanic("arity mismatch in With", func() { reg.CounterVec("y", "a", "b").With("only-one") })
	// Identical re-declaration is fine.
	if reg.CounterVec("y", "a", "b") == nil {
		t.Fatal("identical re-declaration rejected")
	}
}

func TestVecOverflowCollapses(t *testing.T) {
	reg := NewRegistry()
	vec := reg.CounterVec("hot", "id")
	for i := 0; i < MaxSeriesPerVec; i++ {
		vec.With(fmt.Sprint(i)).Inc()
	}
	// Novel combinations beyond the cap all share the overflow series.
	o1 := vec.With("novel-1")
	o2 := vec.With("novel-2")
	if o1 != o2 {
		t.Fatal("overflow series not shared")
	}
	o1.Inc()
	o2.Inc()
	// Existing series stay addressable after the vec fills.
	if vec.With("0").Value() != 1 {
		t.Fatal("pre-overflow series lost")
	}
	var overflow *CounterSnapshot
	series := reg.Snapshot().CounterSeries("hot")
	for i := range series {
		if series[i].Labels[0].Value == OverflowLabelValue {
			overflow = &series[i]
		}
	}
	if overflow == nil || overflow.Value != 2 {
		t.Fatalf("overflow series = %+v, want value 2", overflow)
	}
	if len(series) != MaxSeriesPerVec+1 {
		t.Fatalf("got %d series, want %d", len(series), MaxSeriesPerVec+1)
	}
}

func TestGaugeVec(t *testing.T) {
	reg := NewRegistry()
	reg.GaugeVec("depth", "queue").With("q1").Set(7)

	snap := reg.Snapshot()
	var gauge *GaugeSnapshot
	for i := range snap.Gauges {
		if snap.Gauges[i].Name == "depth" {
			gauge = &snap.Gauges[i]
		}
	}
	if gauge == nil || gauge.Value != 7 || len(gauge.Labels) != 1 {
		t.Fatalf("labeled gauge = %+v", gauge)
	}
}

func TestVecConcurrentWith(t *testing.T) {
	reg := NewRegistry()
	vec := reg.CounterVec("c", "k")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				vec.With(fmt.Sprint(i % 16)).Inc()
			}
		}()
	}
	wg.Wait()
	if got := reg.Snapshot().CounterValue("c"); got != 8*500 {
		t.Fatalf("family sum = %d, want %d", got, 8*500)
	}
}

func TestSnapshotSeriesOrderDeterministic(t *testing.T) {
	build := func() string {
		reg := NewRegistry()
		reg.Count("m", 1) // unlabeled series of the same family
		vec := reg.CounterVec("m", "b", "a")
		vec.With("2", "1").Inc()
		vec.With("1", "2").Inc()
		var names []string
		for _, c := range reg.Snapshot().CounterSeries("m") {
			names = append(names, labelKey(c.Labels))
		}
		return strings.Join(names, "|")
	}
	first := build()
	for i := 0; i < 10; i++ {
		if got := build(); got != first {
			t.Fatalf("series order not deterministic: %q vs %q", got, first)
		}
	}
	// Unlabeled first, then label-sorted.
	if !strings.HasPrefix(first, "|") {
		t.Fatalf("unlabeled series not first: %q", first)
	}
}

func TestSnapshotGaugeSeries(t *testing.T) {
	reg := NewRegistry()
	reg.SetGauge("occ", 1) // unlabeled series of the same family
	vec := reg.GaugeVec("occ", "worker")
	vec.With("1").Set(30)
	vec.With("0").Set(70)
	got := reg.Snapshot().GaugeSeries("occ")
	if len(got) != 3 {
		t.Fatalf("%d series, want 3 (unlabeled + two workers)", len(got))
	}
	// Snapshot order: unlabeled first, then label-sorted.
	if len(got[0].Labels) != 0 || got[0].Value != 1 {
		t.Fatalf("first series = %+v, want unlabeled value 1", got[0])
	}
	if labelKey(got[1].Labels) != "worker=0" || got[1].Value != 70 {
		t.Fatalf("second series = %+v, want worker=0 value 70", got[1])
	}
	if labelKey(got[2].Labels) != "worker=1" || got[2].Value != 30 {
		t.Fatalf("third series = %+v, want worker=1 value 30", got[2])
	}
	if s := reg.Snapshot().GaugeSeries("absent"); s != nil {
		t.Fatalf("absent family returned %+v", s)
	}
}

func labelKey(labels []Label) string {
	parts := make([]string, len(labels))
	for i, l := range labels {
		parts[i] = l.Key + "=" + l.Value
	}
	return strings.Join(parts, ",")
}
