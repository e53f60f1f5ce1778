package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"github.com/uwb-sim/concurrent-ranging/internal/obs/trace"
)

// traceSHA256 hashes a canonical trace record by record: the T bits, then
// Node, Other and Kind, little-endian.
func traceSHA256(tr []SwarmEvent) string {
	h := sha256.New()
	var rec [17]byte
	for _, ev := range tr {
		binary.LittleEndian.PutUint64(rec[0:], math.Float64bits(ev.T))
		binary.LittleEndian.PutUint32(rec[8:], uint32(ev.Node))
		binary.LittleEndian.PutUint32(rec[12:], uint32(ev.Other))
		rec[16] = ev.Kind
		h.Write(rec[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSwarmGolden pins the swarm's results to fixed values: the event
// count, the stats bytes and a digest of the canonical trace, at 1, 2 and
// 8 workers, plus a digest of the one-worker flight-recorder stream (its
// span content is deterministic at one worker only). The sharded-versus-sequential tests compare two runs of one
// build, so a change in how the swarm stores its nodes would pass them
// even if it leaked into the results; these values were recorded before
// the swarm stored its nodes in shard order and must never change with
// the layout.
func TestSwarmGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-node swarms in -short mode")
	}
	cases := []struct {
		name   string
		cfg    SwarmConfig
		events int
		stats  string
		trace  string
		spans  string
	}{
		{
			name:   "defaults N=10000 seed 1",
			cfg:    SwarmConfig{N: 10000, Seed: 1},
			events: 132121,
			stats:  "rounds=4000/4000 empty=0 frames=43870 rx=80251 xshard=16648 resp=39870 busy=511 resolved=22230 collided=17640 abserr=13368.64060214149",
			trace:  "ba8dfde52b781148784ee138e2d158b899a65690148f4ddfb0e876cdfb48ca07",
			spans:  "ef1ce67e474317760095b40e50d1ecf410f7509f74e2fc4be4425b67f4539123",
		},
		{
			name:   "defaults N=10000 seed 7",
			cfg:    SwarmConfig{N: 10000, Seed: 7},
			events: 129897,
			stats:  "rounds=4000/4000 empty=0 frames=43105 rx=78792 xshard=18272 resp=39105 busy=582 resolved=22387 collided=16718 abserr=13540.148885214112",
			trace:  "c64aa12c5095e68f60f38abb1e93f08bed790b8a6b9a695b6d942c601e7f4bb1",
			spans:  "1fb09b82d6001df2bf81ad5f3053edbc57e192633c6d0c3e9320f68cd2baaf04",
		},
		{
			name:   "static N=5000",
			cfg:    SwarmConfig{N: 5000, Seed: 1, NoMobility: true},
			events: 66580,
			stats:  "rounds=2000/2000 empty=0 frames=22140 rx=40440 xshard=15184 resp=20140 busy=160 resolved=11364 collided=8776 abserr=6900.7971236107178",
			trace:  "3a4636e619833844f2e975bdea1a4fd359440b38d3e8932a3a960650fc029a81",
			spans:  "e893715a62079b764913056cf56f0d150b688ee96b8449a3f24e407b3f3aef6b",
		},
		{
			name: "many-leg fast walkers N=5000",
			cfg: SwarmConfig{N: 5000, Seed: 1, Mobility: MobilityConfig{
				RoamRadius: 5, MinSpeed: 20, MaxSpeed: 60, Pause: 10e-3,
			}},
			events: 66588,
			stats:  "rounds=2000/2000 empty=0 frames=22149 rx=40439 xshard=11124 resp=20149 busy=141 resolved=11365 collided=8784 abserr=6896.0524161368594",
			trace:  "17c8d0efd74d3d0f6a102900b3ea9ecf703f47ffc2d9336b3f4c26c4828aeacd",
			spans:  "577d3095131db2b23c727524c096601449b5717703530f73942221aab6e6cad6",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.RecordTrace = true
			sw, err := NewSwarm(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 8} {
				res, err := sw.RunSharded(workers)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if res.Events != tc.events {
					t.Errorf("workers=%d: %d events, want %d", workers, res.Events, tc.events)
				}
				if got := res.Stats.String(); got != tc.stats {
					t.Errorf("workers=%d: stats\n got %s\nwant %s", workers, got, tc.stats)
				}
				if got := traceSHA256(res.Trace); got != tc.trace {
					t.Errorf("workers=%d: trace SHA-256 %s (%d records), want %s",
						workers, got, len(res.Trace), tc.trace)
				}
			}
			var jsonl bytes.Buffer
			tr := trace.New(trace.Config{Writer: &jsonl, RingSize: -1, Clock: func() float64 { return 0 }})
			sw.SetFlightRecorder(tr)
			if _, err := sw.RunSharded(1); err != nil {
				t.Fatal(err)
			}
			if err := tr.Flush(); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(jsonl.Bytes())
			if got := hex.EncodeToString(sum[:]); got != tc.spans {
				t.Errorf("flight recorder SHA-256 %s (%d bytes), want %s", got, jsonl.Len(), tc.spans)
			}
		})
	}
}
