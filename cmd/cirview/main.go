// Command cirview renders the channel impulse response an initiator
// observes during one concurrent-ranging round, either as an ASCII plot
// or as CSV for external plotting.
//
// Usage:
//
//	cirview -env hallway -init 2,1 -resp 0:5,1 -resp 1:8,1 [-csv]
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"github.com/uwb-sim/concurrent-ranging/ranging"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "cirview:", err)
		os.Exit(1)
	}
}

func run() error {
	env := flag.String("env", ranging.EnvHallway, "environment preset")
	initPos := flag.String("init", "1,1", "initiator position x,y")
	seed := flag.Uint64("seed", 1, "simulation seed")
	shapes := flag.Int("shapes", 1, "number of pulse shapes")
	maxRange := flag.Float64("maxrange", 0, "max range in meters (enables RPM)")
	csv := flag.Bool("csv", false, "emit CSV (tap,time_ns,magnitude) instead of the ASCII plot")
	width := flag.Int("width", 100, "ASCII plot width")
	taps := flag.Int("taps", 256, "number of CIR taps to show (0 = all 1016)")
	var resps stringList
	flag.Var(&resps, "resp", "responder as ID:x,y (repeatable)")
	flag.Parse()

	if len(resps) == 0 {
		return fmt.Errorf("at least one -resp required")
	}
	sc := ranging.NewScenario(ranging.Config{
		Environment: *env,
		Seed:        *seed,
		NumShapes:   *shapes,
		MaxRange:    *maxRange,
	})
	x, y, err := parsePoint(*initPos)
	if err != nil {
		return err
	}
	sc.SetInitiator(x, y)
	for _, spec := range resps {
		idPos := strings.SplitN(spec, ":", 2)
		if len(idPos) != 2 {
			return fmt.Errorf("responder %q: want ID:x,y", spec)
		}
		id, err := strconv.Atoi(idPos[0])
		if err != nil {
			return err
		}
		rx, ry, err := parsePoint(idPos[1])
		if err != nil {
			return err
		}
		sc.AddResponder(id, rx, ry)
	}
	session, err := sc.Build()
	if err != nil {
		return err
	}
	res, err := session.Run()
	if err != nil {
		return err
	}
	n := len(res.CIR)
	if *taps > 0 && *taps < n {
		n = *taps
	}
	if *csv {
		fmt.Println("tap,time_ns,magnitude")
		for i := 0; i < n; i++ {
			fmt.Printf("%d,%.4f,%.6e\n", i, float64(i)*res.CIRSampleInterval*1e9, res.CIR[i])
		}
		return nil
	}
	plotASCII(res.CIR[:n], res.CIRSampleInterval, *width)
	fmt.Printf("detected %d responses; anchor d_TWR = %.3f m\n",
		len(res.Measurements), res.AnchorDistance)
	for _, m := range res.Measurements {
		truth := "-" // a measurement that matched no responder
		if m.HasTruth {
			truth = fmt.Sprintf("%.3f", m.TrueDistance)
		}
		fmt.Printf("  responder %2d: %.3f m (true %s)\n", m.ResponderID, m.Distance, truth)
	}
	return nil
}

// plotASCII draws the magnitude as a row-per-level terminal plot.
func plotASCII(mag []float64, ts float64, width int) {
	const rows = 12
	peak := 0.0
	for _, v := range mag {
		if v > peak {
			peak = v
		}
	}
	if peak == 0 || width < 2 {
		fmt.Println("(empty CIR)")
		return
	}
	// Down-sample to the width, keeping bucket maxima.
	cols := make([]float64, width)
	for c := range cols {
		lo := c * len(mag) / width
		hi := (c + 1) * len(mag) / width
		if hi <= lo {
			hi = lo + 1
		}
		for _, v := range mag[lo:min(hi, len(mag))] {
			if v > cols[c] {
				cols[c] = v
			}
		}
	}
	for r := rows; r >= 1; r-- {
		level := peak * float64(r) / rows
		var b strings.Builder
		for _, v := range cols {
			if v >= level {
				b.WriteByte('#')
			} else {
				b.WriteByte(' ')
			}
		}
		fmt.Printf("%8.1e |%s|\n", level, b.String())
	}
	fmt.Printf("%8s +%s+\n", "", strings.Repeat("-", width))
	fmt.Printf("%8s  0 ns%*s\n", "", width-5,
		fmt.Sprintf("%.0f ns", float64(len(mag))*ts*1e9))
}

type stringList []string

func (s *stringList) String() string { return strings.Join(*s, " ") }
func (s *stringList) Set(v string) error {
	*s = append(*s, v)
	return nil
}

func parsePoint(v string) (float64, float64, error) {
	xy := strings.SplitN(v, ",", 2)
	if len(xy) != 2 {
		return 0, 0, fmt.Errorf("want x,y, got %q", v)
	}
	x, err := strconv.ParseFloat(xy[0], 64)
	if err != nil {
		return 0, 0, err
	}
	y, err := strconv.ParseFloat(xy[1], 64)
	if err != nil {
		return 0, 0, err
	}
	return x, y, nil
}
