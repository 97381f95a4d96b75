// Fuzz harness for the flight-record ingestion path: like trace JSON,
// flight-record JSON crosses the process boundary (jockey -flight /
// cmd/experiments flight files), so ReadJSON must tolerate arbitrary bytes
// and the decode→encode→decode round trip must be stable.
package flight_test

import (
	"bytes"
	"testing"
	"time"

	"github.com/jockeysim/jockey/internal/control"
	"github.com/jockeysim/jockey/internal/flight"
)

// seedRecord builds a small well-formed record like RunFlight produces.
func seedRecord() *flight.Record {
	rec := flight.NewRecorder(flight.Config{
		Job: "B", Policy: "jockey-guarded", Level: flight.LevelCounterfactual,
		Deadline: 35 * time.Minute,
	})
	rec.RecordDecision(&control.DecisionRecord{
		At: time.Minute,
		Decision: control.Decision{
			Raw: 54, Granted: 54, Mechanism: control.MechFirstTick, Mode: "primary",
			Predicted: 20 * time.Minute,
		},
		Candidates: []control.CandidateEval{
			{Alloc: 1, Utility: 0, Predicted: 4 * time.Hour},
			{Alloc: 54, Utility: 1, Predicted: 20 * time.Minute},
			{Alloc: 100, Utility: 1, Predicted: 15 * time.Minute},
		},
	})
	rec.RecordDecision(&control.DecisionRecord{
		At: 2 * time.Minute,
		Decision: control.Decision{
			Raw: 54, Granted: 54, Mechanism: control.MechModel, Mode: "primary",
			Deviation: 0.12, Predicted: 21 * time.Minute,
		},
		Candidates: []control.CandidateEval{
			{Alloc: 1, Utility: 0, Predicted: 4 * time.Hour},
			{Alloc: 54, Utility: 1, Predicted: 21 * time.Minute},
		},
	})
	r := rec.Record()
	r.Counterfactual = &flight.Regret{
		Candidates: []int{1, 54, 100},
		Replays: []flight.ReplayOutcome{
			{Alloc: 1, Completion: 4 * time.Hour},
			{Alloc: 54, Completion: 22 * time.Minute, Met: true, AllocTokenSeconds: 71280},
			{Alloc: 100, Completion: 16 * time.Minute, Met: true, AllocTokenSeconds: 96000},
		},
		Actual:         flight.ReplayOutcome{Completion: 23 * time.Minute, Met: true, AllocTokenSeconds: 74000},
		HindsightAlloc: 54,
		TokenRegret:    2720,
		Attribution:    []flight.MechanismShare{{Mechanism: flight.AttributionModelError, Ticks: 2, GapTokenSeconds: 2720}},
		Attributed:     flight.AttributionModelError,
	}
	return r
}

// FuzzFlightJSON: decoding arbitrary bytes must either fail cleanly or yield
// a record that re-encodes, and the re-encoded bytes must decode to the
// byte-identical encoding (decode→encode→decode stable).
func FuzzFlightJSON(f *testing.F) {
	var buf bytes.Buffer
	if err := seedRecord().WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"schema":1,"job":"x","level":"decisions"}`))
	f.Add([]byte(`{"schema":2,"job":"x","level":"decisions"}`))
	f.Add([]byte(`{"schema":1,"job":"x","level":"warp"}`))
	f.Add([]byte(`{"schema":1,"job":"x","level":"decisions","ticks":[{"at_ns":60},{"at_ns":-1}]}`))
	f.Add([]byte(`{"schema":1,"job":"x","level":"decisions","ticks":[{"at_ns":60,"deviation":1e999}]}`))
	f.Add([]byte(`{"schema":1,"job":"x","level":"counterfactual","counterfactual":{"candidates":[5],"replays":[]}}`))
	f.Add([]byte(`{"schema":1,"job":"x","level":"counterfactual","counterfactual":{"candidates":[5,5],"replays":[{"alloc":5},{"alloc":5}]}}`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`null`))
	f.Add([]byte("\x00\xff"))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := flight.ReadJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Anything that validated must encode...
		var first bytes.Buffer
		if err := r.WriteJSON(&first); err != nil {
			t.Fatalf("accepted record failed to encode: %v", err)
		}
		// ...decode again...
		r2, err := flight.ReadJSON(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("encoded record failed to decode: %v", err)
		}
		// ...and re-encode byte-identically.
		var second bytes.Buffer
		if err := r2.WriteJSON(&second); err != nil {
			t.Fatalf("re-decoded record failed to encode: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("round trip unstable:\n%s\nvs\n%s", first.Bytes(), second.Bytes())
		}
	})
}
