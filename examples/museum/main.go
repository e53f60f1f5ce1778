// Museum: the paper's Fig. 8 scenario as an application — a visitor
// device localizes itself against nine wall-mounted anchor tags with a
// single concurrent-ranging round.
//
// The nine anchors share the channel through the combined scheme of
// Sect. VIII: response position modulation splits the CIR into four slots
// (sized for a 75 m communication range) and within each slot up to three
// responders are told apart by their pulse shape (N_max = 4·3 = 12).
// The visitor then solves for its own position from the nine distances —
// the anchor-based localization the paper names as future work.
//
// Run with: go run ./examples/museum
package main

import (
	"fmt"
	"log"
	"math"
	"slices"

	"github.com/uwb-sim/concurrent-ranging/ranging"
)

func main() {
	// Anchor tags along the walls of a 30 m × 2.4 m gallery corridor.
	anchors := map[int]ranging.Position{
		0: {X: 3, Y: 0.3}, 1: {X: 7, Y: 2.1}, 2: {X: 11, Y: 0.3},
		3: {X: 15, Y: 2.1}, 4: {X: 19, Y: 0.3}, 5: {X: 23, Y: 2.1},
		6: {X: 26, Y: 0.3}, 7: {X: 28, Y: 2.1}, 8: {X: 29, Y: 0.3},
	}
	visitor := ranging.Position{X: 9.5, Y: 1.1}

	sc := ranging.NewScenario(ranging.Config{
		Environment: ranging.EnvHallway,
		Seed:        7,
		MaxRange:    75, // → 4 RPM slots (Sect. VII/VIII)
		NumShapes:   3,  // s1..s3 per slot
		// Model the next-generation transceiver without the 8 ns
		// delayed-TX truncation for centimeter-level CIR distances.
		IdealTransceiver: true,
	})
	sc.SetInitiator(visitor.X, visitor.Y)
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
		log.Fatal(err)
	}
	fmt.Printf("combined scheme: %d slots x %d shapes -> capacity %d responders\n",
		session.Plan().NumSlots, session.Plan().NumShapes, session.Capacity())

	result, err := session.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d messages on air for %d anchors\n\n", result.MessagesOnAir, len(anchors))
	identified := 0
	for _, m := range result.Measurements {
		if _, ok := anchors[m.ResponderID]; !ok {
			continue
		}
		identified++
		fmt.Printf("anchor %d (slot %d, shape s%d): %6.2f m  (truth %5.2f m)\n",
			m.ResponderID, m.Slot, m.Shape+1, m.Distance, m.TrueDistance)
	}
	fmt.Printf("\nidentified %d/%d anchors in one round\n", identified, len(anchors))

	pos, err := ranging.LocateFrom(result.Measurements, anchors)
	if err != nil {
		log.Fatal(err)
	}
	errDist := math.Hypot(pos.X-visitor.X, pos.Y-visitor.Y)
	fmt.Printf("visitor position: (%.2f, %.2f), truth (%.2f, %.2f), error %.2f m\n",
		pos.X, pos.Y, visitor.X, visitor.Y, errDist)
}
