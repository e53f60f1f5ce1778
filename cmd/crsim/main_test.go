package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand/v2"
	"regexp"
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
		err := run(tc.args, io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run %q: got %v, want an error naming %q", tc.args, err, tc.want)
		}
	}
}

// TestRunAcceptsInDomainFlags runs a small swarm with every checked flag
// at an in-domain value.
func TestRunAcceptsInDomainFlags(t *testing.T) {
	if err := run([]string{"-swarm", "100", "-swarm-workers", "1", "-swarm-duration", "0.05",
		"-rounds", "1", "-trace-sample", "1", "-swarm-verify"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

// nonFinite matches a NaN or an infinity as fmt prints them.
var nonFinite = regexp.MustCompile(`NaN|[+-]Inf`)

// TestRunFlagProperty draws 200 seeded flag vectors that mix small
// in-domain values with negatives, 0, NaN, ±Inf and 1e308, half the time
// in swarm mode, and requires every run either to return an error or to
// print only finite numbers. In-domain values stay small (-rounds ≤ 3,
// -swarm ≤ 2000, -swarm-duration ≤ 0.05) so the whole draw runs in
// seconds.
func TestRunFlagProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(18, 5))
	hostile := []string{"-1", "0", "NaN", "+Inf", "-Inf", "1e308"}
	// One flag in eight draws a hostile value, so about half the
	// vectors run end to end and the rest probe the checks.
	pick := func(inDomain ...string) string {
		if rng.IntN(8) == 0 {
			return hostile[rng.IntN(len(hostile))]
		}
		return inDomain[rng.IntN(len(inDomain))]
	}
	coord := func() string { return pick("0", "2.5", "9", "-4") }
	accepted := 0
	for i := 0; i < 200; i++ {
		var args []string
		if rng.IntN(2) == 0 {
			args = []string{"-swarm", pick("300", "2000"), "-swarm-workers", pick("1", "2"),
				"-swarm-duration", pick("0.02", "0.05")}
			if rng.IntN(4) == 0 {
				args = append(args, "-swarm-verify")
			}
		} else {
			args = []string{"-init", coord() + "," + coord(), "-maxrange", pick("30", "75"),
				"-shapes", pick("1", "3"), "-rounds", pick("1", "3")}
			for id := 0; id <= rng.IntN(3); id++ {
				args = append(args, "-resp", fmt.Sprintf("%d:%s,%s", id, coord(), coord()))
			}
		}
		args = append(args, "-seed", pick("1", "7"), "-trace-sample", pick("1", "2"))
		var out bytes.Buffer
		if err := run(args, &out); err != nil {
			continue
		}
		accepted++
		if m := nonFinite.FindString(out.String()); m != "" {
			t.Errorf("run %q succeeded but printed %s:\n%s", args, m, out.String())
		}
	}
	if accepted == 0 {
		t.Fatal("every flag vector was rejected; the draw exercises no run")
	}
	t.Logf("%d of 200 flag vectors ran", accepted)
}

// TestRunPrintsNoTruthForUnmatchedMeasurement runs the museum session CI
// traces (seed 3, nine responders at x = 3.0 + 1.6·id m, 4 RPM slots × 3
// shapes). Its first round resolves a path to identity 9, which no
// responder has: that row must print "-" for the true distance and the
// error, not 0.000 and +0.000, while every matched row prints numbers.
func TestRunPrintsNoTruthForUnmatchedMeasurement(t *testing.T) {
	args := []string{"-env", "hallway", "-seed", "3", "-init", "1,0.9", "-shapes", "3", "-maxrange", "75"}
	for id := 0; id < 9; id++ {
		args = append(args, "-resp", fmt.Sprintf("%d:%.1f,0.9", id, 3+1.6*float64(id)))
	}
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	rows := 0
	phantom := false
	for _, line := range strings.Split(out.String(), "\n") {
		f := strings.Fields(line)
		if !strings.HasPrefix(line, "  ") || f[0] == "responder" {
			continue // not a measurement row
		}
		rows++
		if f[0] == "9" {
			phantom = true
			if f[4] != "-" || f[5] != "-" {
				t.Errorf("unmatched measurement prints truth %q and error %q, want - and -:\n%s", f[4], f[5], line)
			}
			continue
		}
		if f[4] == "-" || f[5] == "-" {
			t.Errorf("matched responder %s prints no truth:\n%s", f[0], line)
		}
	}
	if !phantom || rows != 10 {
		t.Fatalf("want 10 rows with an unmatched identity 9 among them, got %d rows:\n%s", rows, out.String())
	}
}
