package experiments

import (
	"fmt"

	"github.com/uwb-sim/concurrent-ranging/internal/channel"
	"github.com/uwb-sim/concurrent-ranging/internal/geom"
	"github.com/uwb-sim/concurrent-ranging/internal/sim"
)

// CampaignResult extends the analytic Sect. III message-count comparison
// with *measured* protocol runs: both the scheduled SS-TWR baseline and
// the concurrent round are executed on the event-driven simulator and
// their realized latency, air time, and radio energy tallied.
type CampaignResult struct {
	// N holds the evaluated network sizes (initiator + N−1 responders).
	N []int
	// ScheduledDuration and ConcurrentDuration are the measured virtual
	// times to complete a full campaign, seconds.
	ScheduledDuration, ConcurrentDuration []float64
	// ScheduledEnergy and ConcurrentEnergy are the summed radio energies
	// in millijoules.
	ScheduledEnergy, ConcurrentEnergy []float64
	// ScheduledMessages and ConcurrentMessages are the realized frame
	// counts.
	ScheduledMessages, ConcurrentMessages []int
}

// Campaign measures both protocols for a range of network sizes. Note the
// scheduled baseline measures *all pairs* (the paper's N·(N−1) framing)
// while the concurrent round measures the initiator's N−1 distances; for
// the initiator-centric cost the comparison is conservative.
func Campaign(env *Env, sizes []int, seed uint64) (*CampaignResult, error) {
	if len(sizes) == 0 {
		sizes = []int{3, 5, 8, 12}
	}
	res := &CampaignResult{N: sizes}
	// Each network size runs two full campaigns (scheduled + concurrent);
	// meter them as campaign units so progress still moves.
	m := newMeter(env, 2*len(sizes))
	defer m.finish()
	for _, n := range sizes {
		nodes := make([]sim.NodeConfig, n)
		for i := range nodes {
			// Node 0 is the initiator (ID -1).
			nodes[i] = sim.NodeConfig{ID: i - 1, Pos: geom.Point{X: 1 + 2*float64(i), Y: 0.9}}
		}
		nc := sim.NetworkConfig{Environment: channel.Hallway(), Seed: seed + uint64(n)}
		netA, nodesA, err := network(env, nc, nodes...)
		if err != nil {
			return nil, err
		}
		var sched *sim.CampaignResult
		if err := m.timeTrial(func() error {
			sched, err = netA.RunScheduledCampaign(nodesA, 0, nil)
			return err
		}); err != nil {
			return nil, err
		}
		netB, nodesB, err := network(env, nc, nodes...)
		if err != nil {
			return nil, err
		}
		var conc *sim.CampaignResult
		if err := m.timeTrial(func() error {
			conc, _, err = netB.RunConcurrentCampaign(nodesB[0], nodesB[1:], sim.RoundConfig{})
			return err
		}); err != nil {
			return nil, err
		}
		res.ScheduledDuration = append(res.ScheduledDuration, sched.Duration)
		res.ConcurrentDuration = append(res.ConcurrentDuration, conc.Duration)
		res.ScheduledEnergy = append(res.ScheduledEnergy, sched.RadioEnergy*1e3)
		res.ConcurrentEnergy = append(res.ConcurrentEnergy, conc.RadioEnergy*1e3)
		res.ScheduledMessages = append(res.ScheduledMessages, sched.Messages)
		res.ConcurrentMessages = append(res.ConcurrentMessages, conc.Messages)
	}
	return res, nil
}

// Render formats the comparison.
func (r *CampaignResult) Render() string {
	t := &Table{
		Title: "Measured protocol campaigns — scheduled SS-TWR vs one concurrent round",
		Header: []string{"N", "msgs sched/conc", "latency sched [ms]", "latency conc [ms]",
			"energy sched [mJ]", "energy conc [mJ]"},
	}
	for i, n := range r.N {
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n),
			fmt.Sprintf("%d / %d", r.ScheduledMessages[i], r.ConcurrentMessages[i]),
			fmtF(r.ScheduledDuration[i]*1e3, 2),
			fmtF(r.ConcurrentDuration[i]*1e3, 2),
			fmtF(r.ScheduledEnergy[i], 3),
			fmtF(r.ConcurrentEnergy[i], 3),
		})
	}
	return t.String()
}
