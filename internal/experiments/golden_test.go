package experiments

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"github.com/jockeysim/jockey/internal/flight"
)

// TestRobustnessFlightGolden pins the CI smoke's robustness grid (job B, one
// seed per cell, counterfactual flight recording, master seed 1 — what
// `experiments -quick -run robustness -flight-level counterfactual` runs)
// against a committed golden: the rendered table plus one SHA-256 per flight
// record, in the format `sha256sum` prints for the CLI's
// flight-robust-<scenario>-<policy>-<seed>.json files. Its ticks cover every
// decision mechanism (model, hysteresis, dead zone, urgency boost, guard
// panic), so unlike the parallelism goldens, which compare runs of one
// build, it shows that a refactor of the control or flight layers left
// their output unchanged across commits. A deliberate behaviour change
// replaces the golden with the output this test prints on a mismatch.
func TestRobustnessFlightGolden(t *testing.T) {
	const path = "testdata/robustness_quick.golden"
	rb, err := RobustnessFlight(NewEnv(1), RobustnessConfig{
		Job:          "B",
		SeedsPerCell: 1,
		Flight:       flight.LevelCounterfactual,
	})
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	got.WriteString(strings.TrimRight(rb.Render(), "\n"))
	got.WriteString("\n\n")
	for _, fr := range rb.Records {
		var b bytes.Buffer
		if err := fr.Record.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "%x  flight-robust-%s-%s-%d.json\n", sha256.Sum256(b.Bytes()), fr.Scenario, fr.Policy, fr.Seed)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("robustness grid differs from %s; this build renders:\n%s", path, got.String())
	}
}
