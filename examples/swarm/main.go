// Swarm: a mobile node tracks its distance to four anchors while moving
// through an office, comparing the channel cost of concurrent ranging
// against classical scheduled SS-TWR.
//
// Every position update needs distances to all four anchors. Concurrent
// ranging gets them with 5 messages (1 INIT + 4 overlapping RESP) and a
// single receive operation at the mobile; scheduled SS-TWR needs 8
// messages and 4 receive operations — the energy argument of Sect. I
// (the DW1000 draws up to 155 mA in receive mode).
//
// Run with: go run ./examples/swarm
package main

import (
	"fmt"
	"log"
	"math"
	"slices"

	"github.com/uwb-sim/concurrent-ranging/ranging"
)

func main() {
	anchors := map[int]ranging.Position{
		0: {X: 0.5, Y: 0.5}, 1: {X: 9.5, Y: 0.5},
		2: {X: 9.5, Y: 7.5}, 3: {X: 0.5, Y: 7.5},
	}
	// The mobile node's true trajectory: a diagonal walk through the room.
	waypoints := []ranging.Position{
		{X: 2, Y: 2}, {X: 3.5, Y: 3}, {X: 5, Y: 4}, {X: 6.5, Y: 5}, {X: 8, Y: 6},
	}

	sc := ranging.NewScenario(ranging.Config{
		Environment:      ranging.EnvOffice,
		Seed:             100,
		MaxRange:         75,
		NumShapes:        1, // 4 slots × 1 shape cover the 4 anchors
		IdealTransceiver: true,
	})
	sc.SetInitiator(waypoints[0].X, waypoints[0].Y)
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

	var totalMsgs, scheduledMsgs int
	var trackErr, fixes float64
	for step, wp := range waypoints {
		session.MoveInitiator(wp.X, wp.Y)
		res, err := session.Run()
		if err != nil {
			log.Fatal(err)
		}
		totalMsgs += res.MessagesOnAir
		scheduledMsgs += 2 * len(anchors) // INIT+RESP per anchor pair

		pos, err := ranging.LocateFrom(res.Measurements, anchors)
		if err != nil {
			fmt.Printf("step %d: localization failed: %v\n", step, err)
			continue
		}
		e := math.Hypot(pos.X-wp.X, pos.Y-wp.Y)
		trackErr += e
		fixes++
		fmt.Printf("step %d: truth (%.1f, %.1f)  fix (%.2f, %.2f)  error %.2f m  [%d msgs]\n",
			step, wp.X, wp.Y, pos.X, pos.Y, e, res.MessagesOnAir)
	}
	fmt.Printf("\ntrajectory: mean position error %.2f m over %g fixes\n", trackErr/fixes, fixes)
	fmt.Printf("channel usage: %d messages concurrent vs %d scheduled SS-TWR (%.0f%% saved)\n",
		totalMsgs, scheduledMsgs, 100*(1-float64(totalMsgs)/float64(scheduledMsgs)))
}
