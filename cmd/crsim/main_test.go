package main

import (
	"strings"
	"testing"
)

func TestParsePoint(t *testing.T) {
	x, y, err := parsePoint("2.5,3.75")
	if err != nil || x != 2.5 || y != 3.75 {
		t.Fatalf("got %g,%g err %v", x, y, err)
	}
	for _, bad := range []string{"", "1", "a,b", "1;2"} {
		if _, _, err := parsePoint(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

func TestResponderFlag(t *testing.T) {
	var r responderFlags
	if err := r.Set("3:1.5,2.5"); err != nil {
		t.Fatal(err)
	}
	if len(r) != 1 || r[0].id != 3 || r[0].x != 1.5 || r[0].y != 2.5 {
		t.Fatalf("parsed %+v", r)
	}
	for _, bad := range []string{"", "1.5,2.5", "x:1,2", "3:nope"} {
		if err := r.Set(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

// TestRunRejectsOutOfDomainFlags drives run with flags outside their
// domain. Each once misbehaved quietly: -swarm -5 fell through to the
// single-round mode, -swarm-workers -3 ran GOMAXPROCS workers,
// -swarm-duration -1 ran 0.2 s, -rounds -2 exited 0 having run nothing and
// -trace-sample 0 sampled every round. Each must fail before any work,
// naming its flag.
func TestRunRejectsOutOfDomainFlags(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-swarm", "-5"}, "-swarm -5"},
		{[]string{"-swarm", "100", "-swarm-workers", "-3"}, "-swarm-workers -3"},
		{[]string{"-swarm", "100", "-swarm-duration", "-1"}, "-swarm-duration -1"},
		{[]string{"-swarm", "100", "-swarm-duration", "NaN"}, "-swarm-duration NaN"},
		{[]string{"-resp", "0:5,1", "-rounds", "-2"}, "-rounds -2"},
		{[]string{"-resp", "0:5,1", "-rounds", "0"}, "-rounds 0"},
		{[]string{"-resp", "0:5,1", "-trace-sample", "0"}, "-trace-sample 0"},
		{[]string{"-swarm", "100", "-trace-sample", "-1"}, "-trace-sample -1"},
	}
	for _, tc := range cases {
		err := run(tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run %q: got %v, want an error naming %q", tc.args, err, tc.want)
		}
	}
}

// TestRunAcceptsInDomainFlags runs a small swarm with every checked flag
// at an in-domain value.
func TestRunAcceptsInDomainFlags(t *testing.T) {
	if err := run([]string{"-swarm", "100", "-swarm-workers", "1", "-swarm-duration", "0.05",
		"-rounds", "1", "-trace-sample", "1", "-swarm-verify"}); err != nil {
		t.Fatal(err)
	}
}
