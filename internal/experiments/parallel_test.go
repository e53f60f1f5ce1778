package experiments

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
)

func TestParallelMapOrdered(t *testing.T) {
	got, err := parallelMap(nil, 100, func(i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("result %d = %d", i, v)
		}
	}
}

func TestParallelMapWrapsErrorWithTrialIndex(t *testing.T) {
	sentinel := errors.New("boom")
	_, err := parallelMap(nil, 50, func(i int) (int, error) {
		if i == 17 || i == 31 {
			return 0, sentinel
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("error swallowed")
	}
	if !errors.Is(err, sentinel) {
		t.Fatalf("cause lost: %v", err)
	}
	// The FIRST failing trial by index is reported, deterministically.
	if !strings.Contains(err.Error(), "trial 17:") {
		t.Fatalf("error %q does not name trial 17", err)
	}
}

func TestParallelMapJoinsAllErrors(t *testing.T) {
	errA, errB := errors.New("first failure"), errors.New("second failure")
	_, err := parallelMap(nil, 40, func(i int) (int, error) {
		switch i {
		case 12:
			return 0, errA
		case 29:
			return 0, errB
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("errors swallowed")
	}
	// Every failure survives the join, matchable by errors.Is.
	if !errors.Is(err, errA) {
		t.Fatalf("first cause lost: %v", err)
	}
	if !errors.Is(err, errB) {
		t.Fatalf("second cause masked: %v", err)
	}
	// The message lists failures in trial-index order, lowest first.
	msg := err.Error()
	at12, at29 := strings.Index(msg, "trial 12:"), strings.Index(msg, "trial 29:")
	if at12 < 0 || at29 < 0 {
		t.Fatalf("error %q does not name both trials", msg)
	}
	if at12 > at29 {
		t.Fatalf("error %q not led by the lowest trial index", msg)
	}
}

func TestParallelMapRecoversPanic(t *testing.T) {
	_, err := parallelMap(nil, 20, func(i int) (int, error) {
		if i == 5 {
			panic("kaboom")
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("panic swallowed")
	}
	if !strings.Contains(err.Error(), "trial 5:") || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("error %q does not describe the panicking trial", err)
	}
}

func TestParallelMapWithPerWorkerState(t *testing.T) {
	var built atomic.Int32
	type state struct{ id int32 }
	got, err := parallelMapWith(nil, 64,
		func() (*state, error) { return &state{id: built.Add(1)}, nil },
		func(s *state, i int) (int32, error) {
			if s == nil || s.id == 0 {
				t.Error("trial ran without worker state")
			}
			return s.id, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if built.Load() < 1 {
		t.Fatal("no worker state built")
	}
	for i, v := range got {
		if v < 1 || v > built.Load() {
			t.Fatalf("trial %d ran with unknown state %d", i, v)
		}
	}
}

func TestParallelMapWithWorkerBuildError(t *testing.T) {
	sentinel := errors.New("no detector")
	_, err := parallelMapWith(nil, 8,
		func() (int, error) { return 0, sentinel },
		func(s, i int) (int, error) { return 0, nil })
	if !errors.Is(err, sentinel) {
		t.Fatalf("worker build error lost: %v", err)
	}
}
