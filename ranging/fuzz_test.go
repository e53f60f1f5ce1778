package ranging

import (
	"strings"
	"testing"
)

// FuzzLoadScenario feeds arbitrary bytes through the JSON scenario path:
// LoadScenario, then Build, then one Run. Each step must either return an
// error or finite output — measurement distances and amplitudes, the
// anchor distance and every CIR magnitude.
func FuzzLoadScenario(f *testing.F) {
	for _, seed := range []string{
		// A valid hallway scenario.
		`{"config": {"environment": "hallway", "seed": 3, "maxRangeMeters": 75, "numShapes": 3},
		  "initiator": {"x": 2, "y": 0.9},
		  "responders": [{"id": 0, "x": 5, "y": 0.9}, {"id": 1, "x": 8, "y": 0.9}, {"id": 2, "x": 12, "y": 0.9}]}`,
		// Coordinates at the edge of float64.
		`{"config": {"environment": "hallway"},
		  "initiator": {"x": 1e308, "y": -1e308},
		  "responders": [{"id": 0, "x": -1e308, "y": 1e308}]}`,
		// Co-located nodes.
		`{"config": {"environment": "office", "maxRangeMeters": 30, "numShapes": 2},
		  "initiator": {"x": 1, "y": 1},
		  "responders": [{"id": 0, "x": 1, "y": 1}, {"id": 1, "x": 1, "y": 1}]}`,
		// An obstacle that swallows every ray crossing it.
		`{"config": {"environment": "office", "obstacles": [{"X1": 3, "Y1": -10, "X2": 3, "Y2": 10, "LossDB": 1e308}]},
		  "initiator": {"x": 1, "y": 1},
		  "responders": [{"id": 0, "x": 6, "y": 1}]}`,
		// A response delay below the Sect. III minimum.
		`{"config": {"environment": "industrial", "responseDelayMicros": 100},
		  "initiator": {"x": 1, "y": 1},
		  "responders": [{"id": 0, "x": 6, "y": 1}]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := LoadScenario(strings.NewReader(string(data)))
		if err != nil {
			return
		}
		session, err := sc.Build()
		if err != nil {
			return
		}
		if res, err := session.Run(); err == nil {
			requireFiniteResult(t, res)
		}
	})
}

// requireFiniteResult fails unless every number a Run returned is finite:
// measurement distances, true distances and amplitudes, the anchor
// distance and every CIR magnitude.
func requireFiniteResult(t *testing.T, res *Result) {
	t.Helper()
	for _, m := range res.Measurements {
		if !finite(m.Distance, m.TrueDistance, m.Amplitude) {
			t.Fatalf("responder %d: distance %g, true distance %g, amplitude %g",
				m.ResponderID, m.Distance, m.TrueDistance, m.Amplitude)
		}
	}
	if !finite(res.AnchorDistance) {
		t.Fatalf("anchor distance %g", res.AnchorDistance)
	}
	for i, v := range res.CIR {
		if !finite(v) {
			t.Fatalf("CIR tap %d magnitude %g", i, v)
		}
	}
}
