package airtime

import (
	"math"
	"testing"
)

func closeTo(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSymbolDurations(t *testing.T) {
	cases := []struct {
		rate DataRate
		want float64 // seconds
	}{
		{Rate110K, 8205.13e-9},
		{Rate850K, 1025.64e-9},
		{Rate6M8, 128.21e-9},
	}
	for _, c := range cases {
		got, err := c.rate.SymbolDuration()
		if err != nil {
			t.Fatal(err)
		}
		if !closeTo(got, c.want, 0.01e-9) {
			t.Errorf("%v symbol duration %g, want %g", c.rate, got, c.want)
		}
	}
	if _, err := DataRate(0).SymbolDuration(); err == nil {
		t.Error("invalid rate accepted")
	}
}

func TestPreambleSymbolDurations(t *testing.T) {
	got, err := PRF64.PreambleSymbolDuration()
	if err != nil {
		t.Fatal(err)
	}
	if !closeTo(got, 1017.63e-9, 0.01e-9) {
		t.Errorf("PRF64 preamble symbol %g, want 1017.63 ns", got)
	}
	got, err = PRF16.PreambleSymbolDuration()
	if err != nil {
		t.Fatal(err)
	}
	if !closeTo(got, 993.59e-9, 0.01e-9) {
		t.Errorf("PRF16 preamble symbol %g, want 993.59 ns", got)
	}
	if _, err := PRF(42).PreambleSymbolDuration(); err == nil {
		t.Error("invalid PRF accepted")
	}
}

func TestConfigValidate(t *testing.T) {
	if err := PaperConfig().Validate(); err != nil {
		t.Fatalf("paper config invalid: %v", err)
	}
	bad := []Config{
		{Rate: DataRate(9), PRF: PRF64, PreambleSymbols: 128},
		{Rate: Rate6M8, PRF: PRF(5), PreambleSymbols: 128},
		{Rate: Rate6M8, PRF: PRF64, PreambleSymbols: 100},
		{Rate: Rate6M8, PRF: PRF64, PreambleSymbols: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestPaperMinimumResponseDelay(t *testing.T) {
	// Sect. III: DR = 6.8 Mbps, PRF = 64 MHz, PSR = 128 → the PHR+payload
	// of INIT plus preamble+SFD of RESP last 178.5 µs.
	got, err := MinResponseDelay(PaperConfig(), InitPayloadBytes)
	if err != nil {
		t.Fatal(err)
	}
	if !closeTo(got, 178.5e-6, 0.5e-6) {
		t.Fatalf("minimum response delay %g µs, want 178.5 µs", got*1e6)
	}
}

func TestPaperResponseDelayWithTurnaround(t *testing.T) {
	// 178.5 µs + <100 µs turnaround + safety gap → the paper's 290 µs.
	got, err := ResponseDelay(PaperConfig(), InitPayloadBytes, DefaultTurnaround)
	if err != nil {
		t.Fatal(err)
	}
	if !closeTo(got, DefaultResponseDelay, 1e-9) {
		t.Fatalf("response delay %g µs, want 290 µs", got*1e6)
	}
	if _, err := ResponseDelay(PaperConfig(), 12, -1); err == nil {
		t.Error("negative turnaround accepted")
	}
}

func TestPreambleDurationPaperConfig(t *testing.T) {
	got, err := PaperConfig().PreambleDuration()
	if err != nil {
		t.Fatal(err)
	}
	if !closeTo(got, 128*1017.63e-9, 1e-9) {
		t.Fatalf("preamble %g µs", got*1e6)
	}
}

func TestSFDLongerAt110K(t *testing.T) {
	slow := Config{Rate: Rate110K, PRF: PRF64, PreambleSymbols: 1024}
	fast := PaperConfig()
	s1, err := slow.SFDDuration()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := fast.SFDDuration()
	if err != nil {
		t.Fatal(err)
	}
	if !closeTo(s1/s2, 8, 1e-9) { // 64 symbols vs 8
		t.Fatalf("SFD ratio %g, want 8", s1/s2)
	}
}

func TestPayloadDurationReedSolomonBlocks(t *testing.T) {
	c := PaperConfig()
	sym, _ := Rate6M8.SymbolDuration()
	// 12 bytes = 96 bits: one RS block → 96+48 symbols.
	got, err := c.PayloadDuration(12)
	if err != nil {
		t.Fatal(err)
	}
	if !closeTo(got, 144*sym, 1e-12) {
		t.Fatalf("12-byte payload %g, want %g", got, 144*sym)
	}
	// 42 bytes = 336 bits: two RS blocks → 336+96 symbols.
	got, err = c.PayloadDuration(42)
	if err != nil {
		t.Fatal(err)
	}
	if !closeTo(got, 432*sym, 1e-12) {
		t.Fatalf("42-byte payload %g, want %g", got, 432*sym)
	}
	if _, err := c.PayloadDuration(-1); err == nil {
		t.Error("negative payload accepted")
	}
	// Zero-byte payload: zero blocks, zero duration.
	got, err = c.PayloadDuration(0)
	if err != nil || got != 0 {
		t.Errorf("empty payload duration %g, err %v", got, err)
	}
}

func TestFrameDurationIsSumOfParts(t *testing.T) {
	c := PaperConfig()
	shr, _ := c.SHRDuration()
	phr, _ := c.PHRDuration()
	pay, _ := c.PayloadDuration(20)
	frame, err := c.FrameDuration(20)
	if err != nil {
		t.Fatal(err)
	}
	if !closeTo(frame, shr+phr+pay, 1e-12) {
		t.Fatalf("frame %g != %g", frame, shr+phr+pay)
	}
}

func TestFrameDurationMonotonicInPayload(t *testing.T) {
	c := PaperConfig()
	prev := -1.0
	for n := 0; n <= 127; n += 3 {
		d, err := c.FrameDuration(n)
		if err != nil {
			t.Fatal(err)
		}
		if d < prev {
			t.Fatalf("frame duration decreased at %d bytes", n)
		}
		prev = d
	}
}

func TestScheduledVsConcurrentMessageCounts(t *testing.T) {
	// The headline scaling claim: N·(N−1) messages scheduled vs N
	// concurrent (Sect. III).
	c := PaperConfig()
	p := DefaultPowerModel()
	for _, n := range []int{2, 3, 10, 50} {
		sched, err := ScheduledTWRCost(c, p, n)
		if err != nil {
			t.Fatal(err)
		}
		conc, err := ConcurrentCost(c, p, n)
		if err != nil {
			t.Fatal(err)
		}
		if sched.Messages != n*(n-1) {
			t.Fatalf("n=%d: scheduled messages %d, want %d", n, sched.Messages, n*(n-1))
		}
		if conc.Messages != n {
			t.Fatalf("n=%d: concurrent messages %d, want %d", n, conc.Messages, n)
		}
		if conc.InitiatorTx != 1 || conc.InitiatorRx != 1 {
			t.Fatalf("n=%d: concurrent initiator ops %d/%d, want 1/1",
				n, conc.InitiatorTx, conc.InitiatorRx)
		}
		if n > 2 && conc.NetworkEnergy >= sched.NetworkEnergy {
			t.Fatalf("n=%d: concurrent energy %g not below scheduled %g",
				n, conc.NetworkEnergy, sched.NetworkEnergy)
		}
		if conc.AirTime >= sched.AirTime && n > 2 {
			t.Fatalf("n=%d: concurrent air time not lower", n)
		}
	}
	if _, err := ScheduledTWRCost(c, p, 1); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := ConcurrentCost(c, p, 0); err == nil {
		t.Error("n=0 accepted")
	}
}

func TestEnergyModel(t *testing.T) {
	p := DefaultPowerModel()
	// 155 mA × 3.3 V × 1 ms ≈ 0.51 mJ.
	if got := p.RxEnergy(1e-3); !closeTo(got, 0.155*3.3*1e-3, 1e-12) {
		t.Fatalf("RxEnergy = %g", got)
	}
	if p.RxEnergy(1) <= p.TxEnergy(1) {
		t.Fatal("receive must cost more than transmit on the DW1000")
	}
}

func TestDataRateString(t *testing.T) {
	if Rate6M8.String() != "6.8Mbps" || Rate110K.String() != "110kbps" || Rate850K.String() != "850kbps" {
		t.Fatal("unexpected rate names")
	}
	if DataRate(7).String() == "" {
		t.Fatal("unknown rate must still format")
	}
}

func TestInvalidConfigPropagatesThroughDurations(t *testing.T) {
	bad := Config{Rate: DataRate(9), PRF: PRF64, PreambleSymbols: 128}
	if _, err := bad.PreambleDuration(); err == nil {
		t.Error("PreambleDuration accepted invalid config")
	}
	if _, err := bad.SFDDuration(); err == nil {
		t.Error("SFDDuration accepted invalid config")
	}
	if _, err := bad.SHRDuration(); err == nil {
		t.Error("SHRDuration accepted invalid config")
	}
	if _, err := bad.PHRDuration(); err == nil {
		t.Error("PHRDuration accepted invalid config")
	}
	if _, err := bad.PayloadDuration(10); err == nil {
		t.Error("PayloadDuration accepted invalid config")
	}
	if _, err := bad.FrameDuration(10); err == nil {
		t.Error("FrameDuration accepted invalid config")
	}
	if _, err := MinResponseDelay(bad, 10); err == nil {
		t.Error("MinResponseDelay accepted invalid config")
	}
	if _, err := ResponseDelay(bad, 10, 0); err == nil {
		t.Error("ResponseDelay accepted invalid config")
	}
	if _, err := ScheduledTWRCost(bad, DefaultPowerModel(), 4); err == nil {
		t.Error("ScheduledTWRCost accepted invalid config")
	}
	if _, err := ConcurrentCost(bad, DefaultPowerModel(), 4); err == nil {
		t.Error("ConcurrentCost accepted invalid config")
	}
}

func TestPHRRateAt110K(t *testing.T) {
	// At 110 kbps the PHR is sent at 110 kbps; at the faster rates it
	// drops to 850 kbps.
	slow := Config{Rate: Rate110K, PRF: PRF64, PreambleSymbols: 1024}
	phrSlow, err := slow.PHRDuration()
	if err != nil {
		t.Fatal(err)
	}
	fast := PaperConfig()
	phrFast, err := fast.PHRDuration()
	if err != nil {
		t.Fatal(err)
	}
	if !closeTo(phrSlow/phrFast, 8, 1e-9) { // symbol ratio 8205/1025
		t.Fatalf("PHR ratio %g, want 8", phrSlow/phrFast)
	}
}

func TestMinResponseDelayGrowsWithPayload(t *testing.T) {
	c := PaperConfig()
	small, err := MinResponseDelay(c, 8)
	if err != nil {
		t.Fatal(err)
	}
	large, err := MinResponseDelay(c, 100)
	if err != nil {
		t.Fatal(err)
	}
	if large <= small {
		t.Fatal("longer INIT payload must increase the minimum delay")
	}
}
