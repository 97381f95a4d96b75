package fleet

import (
	"fmt"
	"strings"
	"time"
)

// JobRecord is one offered job's flight record through the arbiter: what
// was promised, what was granted, how it ended, and — for a miss — which
// mechanism (admission wait, arbitration squeeze, or guard latch) carries
// the dominant blame.
type JobRecord struct {
	ID    int
	Shape string
	Value int
	Drift bool

	// Arrival is the offer time; Deadline is the SLO relative to it.
	Arrival  time.Duration
	Deadline time.Duration

	// Admission outcome.
	Admitted     bool
	AdmittedAt   time.Duration
	Deferrals    int
	Rejected     bool
	RejectReason string // "infeasible", "no-fit" (FIFO), "overload"
	Reservation  int

	// Execution outcome (admitted jobs only).
	Completed  bool
	Completion time.Duration // absolute, on the cluster clock
	Met        bool
	Utility    float64
	GuardMode  string // final guard mode, "" when unguarded
	Panics     int

	// Mechanism gaps in token-seconds: how much allocation each mechanism
	// withheld relative to the job's unconstrained desire.
	AdmissionGap   float64
	ArbitrationGap float64
	GuardGap       float64
	// Attribution names the blamed mechanism for a miss ("admission",
	// "arbitration", "guard", or "model" when no gap explains it);
	// empty for met jobs.
	Attribution string
}

// Result is one fleet replay's full record.
type Result struct {
	Arbitration Arbitration
	Guarded     bool
	Budget      int
	Epochs      int
	Jobs        []JobRecord

	// Tallies over Jobs (Missed counts rejected offers as misses: a
	// turned-away SLO job is a broken promise, not a statistics dodge).
	Admitted, Rejected int
	Met, Missed        int
	AggUtility         float64
	Utilization        float64
}

// finalize derives the tallies and per-miss attributions from the records.
func (r *Result) finalize() {
	for i := range r.Jobs {
		rec := &r.Jobs[i]
		r.AggUtility += rec.Utility
		switch {
		case rec.Rejected:
			r.Missed++
			rec.Attribution = "admission"
		case rec.Met:
			r.Met++
		default:
			r.Missed++
			rec.Attribution = rec.blame()
		}
	}
}

// blame names the dominant withholding mechanism. Ties and the no-gap case
// resolve in a fixed order so attribution is deterministic: a job that was
// both deferred and squeezed blames the earlier mechanism.
func (rec *JobRecord) blame() string {
	const eps = 1e-9
	best, blame := eps, "model"
	for _, m := range []struct {
		name string
		gap  float64
	}{
		{"admission", rec.AdmissionGap},
		{"arbitration", rec.ArbitrationGap},
		{"guard", rec.GuardGap},
	} {
		if m.gap > best {
			best, blame = m.gap, m.name
		}
	}
	return blame
}

// Name is the discipline's display name ("utility-greedy+guard" when the
// guard layer is on).
func (r *Result) Name() string {
	if r.Guarded {
		return string(r.Arbitration) + "+guard"
	}
	return string(r.Arbitration)
}

// Render formats the replay as a per-job table plus a summary line. The
// output is byte-deterministic and is what the golden parallelism tests
// compare.
func (r *Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fleet %s · budget %d · %d offers · %d epochs\n",
		r.Name(), r.Budget, len(r.Jobs), r.Epochs)
	rows := make([][]string, 0, len(r.Jobs))
	for i := range r.Jobs {
		rec := &r.Jobs[i]
		admit := "-"
		switch {
		case rec.Rejected:
			admit = "rej:" + rec.RejectReason
		case rec.Admitted:
			admit = fmtDur(rec.AdmittedAt)
			if rec.Deferrals > 0 {
				admit += fmt.Sprintf(" (+%d)", rec.Deferrals)
			}
		}
		end, met := "-", "-"
		if rec.Completed {
			end = fmtDur(rec.Completion)
			if rec.Met {
				met = "met"
			} else {
				met = "MISS"
			}
		} else if rec.Rejected {
			met = "MISS"
		}
		guard := rec.GuardMode
		if guard == "" {
			guard = "-"
		}
		attr := rec.Attribution
		if attr == "" {
			attr = "-"
		}
		shape := rec.Shape
		if rec.Drift {
			shape += "!"
		}
		rows = append(rows, []string{
			fmt.Sprint(rec.ID), shape, fmt.Sprint(rec.Value),
			fmtDur(rec.Arrival), fmtDur(rec.Deadline), admit,
			fmt.Sprint(rec.Reservation), end, met,
			fmt.Sprintf("%+.2f", rec.Utility), guard, attr,
		})
	}
	renderColumns(&b, []string{
		"id", "shape", "val", "arrive", "slo", "admit", "resv", "done", "slo?", "util", "guard", "blame",
	}, rows)
	fmt.Fprintf(&b, "admitted %d/%d · rejected %d · met %d · missed %d · utility %+.2f · utilization %.0f%%\n",
		r.Admitted, len(r.Jobs), r.Rejected, r.Met, r.Missed, r.AggUtility, 100*r.Utilization)
	return b.String()
}

// fmtDur renders a cluster time compactly (whole seconds).
func fmtDur(d time.Duration) string {
	return d.Truncate(time.Second).String()
}

// renderColumns writes an aligned left-justified table.
func renderColumns(b *strings.Builder, headers []string, rows [][]string) {
	width := make([]int, len(headers))
	for i, h := range headers {
		width[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > width[i] {
				width[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if pad := width[i] - len(cell); pad > 0 && i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", pad))
			}
		}
		b.WriteByte('\n')
	}
	writeRow(headers)
	rule := make([]string, len(headers))
	for i := range rule {
		rule[i] = strings.Repeat("-", width[i])
	}
	writeRow(rule)
	for _, row := range rows {
		writeRow(row)
	}
}
