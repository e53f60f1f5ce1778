// NLOS: the paper's future-work question — what happens to concurrent
// ranging when a responder's line of sight is obstructed?
//
// Part 1 contrasts per-responder ranging errors with and without a
// partition blocking one direct path: the obstructed responder shows the
// positive bias typical of NLOS (its attenuated direct path loses to
// later reflections).
//
// Part 2 shows a mitigation at the application layer: with redundant
// anchors, robust localization (Tukey-biweight reweighting) rejects the
// NLOS-inflated range that drags a plain least-squares fix.
//
// Run with: go run ./examples/nlos
package main

import (
	"fmt"
	"log"
	"math"
	"slices"

	"github.com/uwb-sim/concurrent-ranging/ranging"
)

func rangingBias(obstructed bool, seed uint64) error {
	cfg := ranging.Config{
		Environment:      ranging.EnvOffice,
		Seed:             seed,
		NumShapes:        2, // pulse shaping identifies the two responders
		IdealTransceiver: true,
	}
	if obstructed {
		// A partition between the initiator (1,4) and responder 1 (8,4).
		cfg.Obstacles = []ranging.Obstacle{{X1: 5, Y1: 3, X2: 5, Y2: 5, LossDB: 12}}
	}
	sc := ranging.NewScenario(cfg)
	sc.SetInitiator(1, 4)
	sc.AddResponder(0, 4, 1) // clear LOS
	sc.AddResponder(1, 8, 4) // behind the partition when obstructed
	session, err := sc.Build()
	if err != nil {
		return err
	}
	var sum0, sum1 float64
	const rounds = 25
	for i := 0; i < rounds; i++ {
		res, err := session.Run()
		if err != nil {
			return err
		}
		for _, m := range res.Measurements {
			switch m.ResponderID {
			case 0:
				sum0 += m.Error()
			case 1:
				sum1 += m.Error()
			}
		}
	}
	label := "free line of sight"
	if obstructed {
		label = "12 dB partition before responder 1"
	}
	fmt.Printf("%-38s mean error: responder 0 %+6.3f m, responder 1 %+6.3f m\n",
		label+":", sum0/rounds, sum1/rounds)
	return nil
}

func robustLocalization() error {
	anchors := map[int]ranging.Position{
		0: {X: 0.5, Y: 0.5}, 1: {X: 9.5, Y: 0.5}, 2: {X: 9.5, Y: 7.5},
		3: {X: 0.5, Y: 7.5}, 4: {X: 5.0, Y: 0.5},
	}
	truth := ranging.Position{X: 4, Y: 4}
	sc := ranging.NewScenario(ranging.Config{
		Environment:      ranging.EnvOffice,
		Seed:             33,
		MaxRange:         75,
		NumShapes:        2,
		IdealTransceiver: true,
		// A cabinet blocks the path to anchor 4.
		Obstacles: []ranging.Obstacle{{X1: 4.2, Y1: 1.5, X2: 4.8, Y2: 1.5, LossDB: 18}},
	})
	sc.SetInitiator(truth.X, truth.Y)
	// Add the responders in ascending ID order: each takes the next seed
	// off the network's RNG, so map order would change the run.
	ids := make([]int, 0, len(anchors))
	for id := range anchors {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		sc.AddResponder(id, anchors[id].X, anchors[id].Y)
	}
	session, err := sc.Build()
	if err != nil {
		return err
	}
	res, err := session.Run()
	if err != nil {
		return err
	}
	plain, err := ranging.LocateFrom(res.Measurements, anchors)
	if err != nil {
		return err
	}
	robust, err := ranging.LocateRobust(res.Measurements, anchors)
	if err != nil {
		return err
	}
	dist := func(p ranging.Position) float64 {
		return math.Hypot(p.X-truth.X, p.Y-truth.Y)
	}
	fmt.Printf("\nlocalization with one NLOS anchor (truth %.1f, %.1f):\n", truth.X, truth.Y)
	for _, m := range res.Measurements {
		fmt.Printf("  anchor %d: measured %6.2f m (truth %5.2f, error %+6.3f)\n",
			m.ResponderID, m.Distance, m.TrueDistance, m.Error())
	}
	fmt.Printf("  plain least squares: (%.2f, %.2f) — error %.2f m\n", plain.X, plain.Y, dist(plain))
	fmt.Printf("  robust (Tukey):      (%.2f, %.2f) — error %.2f m\n", robust.X, robust.Y, dist(robust))
	return nil
}

func main() {
	fmt.Println("concurrent ranging under attenuated line of sight (future work, Sect. IX)")
	if err := rangingBias(false, 21); err != nil {
		log.Fatal(err)
	}
	if err := rangingBias(true, 21); err != nil {
		log.Fatal(err)
	}
	if err := robustLocalization(); err != nil {
		log.Fatal(err)
	}
}
