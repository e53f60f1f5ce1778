package sim

import (
	"fmt"

	"github.com/uwb-sim/concurrent-ranging/internal/airtime"
	"github.com/uwb-sim/concurrent-ranging/internal/obs/trace"
	"github.com/uwb-sim/concurrent-ranging/internal/pulse"
)

// CampaignResult tallies a full network-ranging campaign — either the
// scheduled SS-TWR baseline (one exchange per node pair, Fig. 3 left) or
// a single concurrent round — with *measured* virtual time, not the
// analytic formulas of internal/airtime.
type CampaignResult struct {
	// Distances holds the estimated pairwise distances, keyed by the two
	// node IDs with the smaller first.
	Distances map[[2]int]float64
	// Messages is the number of frames put on the air.
	Messages int
	// Duration is the elapsed virtual time from campaign start to the
	// last reception, seconds.
	Duration float64
	// AirTime is the summed frame on-air time, seconds.
	AirTime float64
	// RadioEnergy is the summed TX+RX energy of all nodes, joules.
	RadioEnergy float64
}

// RunScheduledCampaign measures all pairwise distances with classical
// SS-TWR: one two-message exchange per unordered node pair, serialized on
// the channel with a guard interval — the N·(N−1)-message baseline the
// paper's efficiency argument is built on (the initiator of each exchange
// is the lower-ID node).
func (n *Network) RunScheduledCampaign(nodes []*Node, responseDelay float64, bank *pulse.Bank) (result *CampaignResult, err error) {
	if len(nodes) < 2 {
		return nil, fmt.Errorf("sim: campaign needs at least 2 nodes, got %d", len(nodes))
	}
	if n.flightActive() {
		sp := n.beginSpan(trace.SpanCampaign, trace.Attrs{
			trace.AttrSeed: n.seed,
			"kind":         "scheduled",
			"nodes":        len(nodes),
		})
		prev := n.traceParent
		n.traceParent = sp
		defer func() {
			n.traceParent = prev
			n.endCampaignSpan(sp, result, err)
		}()
	}
	if responseDelay == 0 {
		responseDelay = airtime.DefaultResponseDelay
	}
	initDur, err := n.PHY().FrameDuration(airtime.InitPayloadBytes)
	if err != nil {
		return nil, err
	}
	respDur, err := n.PHY().FrameDuration(airtime.RespPayloadBytes)
	if err != nil {
		return nil, err
	}
	pm := airtime.DefaultPowerModel()
	res := &CampaignResult{Distances: make(map[[2]int]float64, len(nodes)*(len(nodes)-1)/2)}
	start := n.now
	for i := 0; i < len(nodes); i++ {
		for j := i + 1; j < len(nodes); j++ {
			d, err := n.RunTWRExchange(nodes[i], nodes[j], responseDelay, bank)
			if err != nil {
				return nil, fmt.Errorf("pair (%s, %s): %w", nodes[i].Name, nodes[j].Name, err)
			}
			res.Distances[[2]int{nodes[i].ID, nodes[j].ID}] = d
			res.Messages += 2
			res.AirTime += initDur + respDur
			// INIT: one TX + one RX; RESP: one TX + one RX.
			res.RadioEnergy += pm.TxEnergy(initDur) + pm.RxEnergy(initDur) +
				pm.TxEnergy(respDur) + pm.RxEnergy(respDur)
		}
	}
	res.Duration = n.now - start
	return res, nil
}

// RunConcurrentCampaign measures the distances from one initiator to all
// other nodes with a single concurrent round and tallies the same cost
// metrics for comparison. The round configuration controls the scheme
// (plan, bank, quantization).
func (n *Network) RunConcurrentCampaign(initiator *Node, responders []*Node, cfg RoundConfig) (result *CampaignResult, round *RoundResult, err error) {
	if n.flightActive() {
		sp := n.beginSpan(trace.SpanCampaign, trace.Attrs{
			trace.AttrSeed: n.seed,
			"kind":         "concurrent",
			"nodes":        1 + len(responders),
		})
		prev := n.traceParent
		n.traceParent = sp
		defer func() {
			n.traceParent = prev
			n.endCampaignSpan(sp, result, err)
		}()
	}
	initDur, err := n.PHY().FrameDuration(airtime.InitPayloadBytes)
	if err != nil {
		return nil, nil, err
	}
	respDur, err := n.PHY().FrameDuration(airtime.RespPayloadBytes)
	if err != nil {
		return nil, nil, err
	}
	pm := airtime.DefaultPowerModel()
	start := n.now
	round, err = n.RunConcurrentRound(initiator, responders, cfg)
	if err != nil {
		return nil, nil, err
	}
	res := &CampaignResult{
		Distances: make(map[[2]int]float64, len(responders)),
		Messages:  1 + len(responders),
		Duration:  n.now - start,
		// One INIT on the air plus the overlapping RESP window.
		AirTime: initDur + respDur,
	}
	// Initiator: TX INIT + RX aggregate; each responder: RX INIT + TX RESP.
	res.RadioEnergy = pm.TxEnergy(initDur) + pm.RxEnergy(respDur) +
		float64(len(responders))*(pm.RxEnergy(initDur)+pm.TxEnergy(respDur))
	return res, round, nil
}
