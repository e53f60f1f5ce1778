package airtime

import "fmt"

// PowerModel captures the DW1000 current draw the paper's efficiency
// argument rests on: up to 155 mA in receive and 90 mA in transmit mode —
// significantly more than other low-power radios, which is why cutting the
// number of ranging messages matters (Sect. I).
type PowerModel struct {
	// RxCurrent is the receive-mode current draw in amperes.
	RxCurrent float64
	// TxCurrent is the transmit-mode current draw in amperes.
	TxCurrent float64
	// Voltage is the supply voltage in volts.
	Voltage float64
}

// DefaultPowerModel returns the DW1000 datasheet values the paper cites.
func DefaultPowerModel() PowerModel {
	return PowerModel{
		RxCurrent: 0.155,
		TxCurrent: 0.090,
		Voltage:   3.3,
	}
}

// TxEnergy returns the energy in joules for transmitting for d seconds.
func (p PowerModel) TxEnergy(d float64) float64 { return p.TxCurrent * p.Voltage * d }

// RxEnergy returns the energy in joules for receiving for d seconds.
func (p PowerModel) RxEnergy(d float64) float64 { return p.RxCurrent * p.Voltage * d }

// RangingCost summarizes the network-wide cost of estimating all pairwise
// distances from one initiator's point of view.
type RangingCost struct {
	// Messages is the total number of frames on the air.
	Messages int
	// InitiatorTx and InitiatorRx count the initiator's frame operations.
	InitiatorTx, InitiatorRx int
	// AirTime is the total occupied channel time in seconds.
	AirTime float64
	// InitiatorEnergy is the initiator's radio energy in joules.
	InitiatorEnergy float64
	// NetworkEnergy is the summed radio energy of all nodes in joules.
	NetworkEnergy float64
}

// ScheduledTWRCost returns the cost of classical scheduled SS-TWR ranging
// between all N nodes: one two-message exchange per unordered node pair,
// i.e. N·(N−1) messages in total, with every node performing N−1
// transmissions and N−1 receptions (Sect. I and Sect. III of the paper).
func ScheduledTWRCost(c Config, p PowerModel, n int) (RangingCost, error) {
	if n < 2 {
		return RangingCost{}, fmt.Errorf("airtime: need at least 2 nodes, got %d", n)
	}
	initDur, err := c.FrameDuration(InitPayloadBytes)
	if err != nil {
		return RangingCost{}, err
	}
	respDur, err := c.FrameDuration(RespPayloadBytes)
	if err != nil {
		return RangingCost{}, err
	}
	exchanges := n * (n - 1) / 2 // one SS-TWR exchange per unordered pair
	cost := RangingCost{
		Messages:    2 * exchanges, // INIT + RESP per exchange = N·(N−1) total
		InitiatorTx: n - 1,         // one frame per neighbor (INIT or RESP role)
		InitiatorRx: n - 1,
		AirTime:     float64(exchanges) * (initDur + respDur),
	}
	perExchangeEnergy := p.TxEnergy(initDur) + p.RxEnergy(respDur) + // initiator side
		p.RxEnergy(initDur) + p.TxEnergy(respDur) // responder side
	cost.NetworkEnergy = float64(exchanges) * perExchangeEnergy
	// A node acts as initiator in roughly half of its N−1 exchanges; the
	// per-role energies differ only by the INIT/RESP frame-length gap, so
	// charge the average.
	cost.InitiatorEnergy = float64(n-1) * perExchangeEnergy / 2
	return cost, nil
}

// ConcurrentCost returns the cost of one concurrent-ranging round: the
// initiator broadcasts a single INIT and receives a single aggregated RESP
// while every responder receives the INIT and transmits its RESP — N
// messages total for N nodes (Sect. III).
func ConcurrentCost(c Config, p PowerModel, n int) (RangingCost, error) {
	if n < 2 {
		return RangingCost{}, fmt.Errorf("airtime: need at least 2 nodes, got %d", n)
	}
	initDur, err := c.FrameDuration(InitPayloadBytes)
	if err != nil {
		return RangingCost{}, err
	}
	respDur, err := c.FrameDuration(RespPayloadBytes)
	if err != nil {
		return RangingCost{}, err
	}
	responders := n - 1
	cost := RangingCost{
		Messages:    1 + responders, // one broadcast, N−1 overlapping responses
		InitiatorTx: 1,
		InitiatorRx: 1, // all responses aggregate into a single reception
		AirTime:     initDur + respDur,
	}
	cost.InitiatorEnergy = p.TxEnergy(initDur) + p.RxEnergy(respDur)
	cost.NetworkEnergy = cost.InitiatorEnergy +
		float64(responders)*(p.RxEnergy(initDur)+p.TxEnergy(respDur))
	return cost, nil
}
