// Fuzz harness for the trace-ingestion path: JSON from disk is the one
// input the repository accepts from outside its own process (jockey
// -save-trace / -save-profile round-trips), so ReadJSON and the
// profile-extraction built on top of it must tolerate arbitrary bytes.
package trace_test

import (
	"bytes"
	"testing"
	"time"

	"github.com/jockeysim/jockey/internal/dag"
	"github.com/jockeysim/jockey/internal/profile"
	"github.com/jockeysim/jockey/internal/trace"
)

// seedTrace builds a small well-formed trace like the ones sim.Run records.
func seedTrace() *trace.JobTrace {
	tr := trace.New("fuzz-seed", 2)
	tr.AddTask(trace.TaskEvent{Stage: 0, Task: 0, Queued: 0, Dispatched: time.Second,
		Started: 2 * time.Second, Ended: 12 * time.Second})
	tr.AddTask(trace.TaskEvent{Stage: 0, Task: 1, Queued: 0, Dispatched: time.Second,
		Started: 3 * time.Second, Ended: 9 * time.Second, Failed: true})
	tr.AddTask(trace.TaskEvent{Stage: 0, Task: 1, Attempt: 1, Queued: 9 * time.Second,
		Dispatched: 10 * time.Second, Started: 11 * time.Second, Ended: 20 * time.Second})
	tr.AddTask(trace.TaskEvent{Stage: 1, Task: 0, Queued: 20 * time.Second,
		Dispatched: 21 * time.Second, Started: 22 * time.Second, Ended: 50 * time.Second})
	tr.AddAlloc(trace.AllocPoint{T: time.Minute, Raw: 3, Granted: 2, Running: 2, Oracle: 1,
		Progress: 0.4, Predicted: 30 * time.Second})
	tr.Completion = 50 * time.Second
	return tr
}

// FuzzTraceJSON: decoding arbitrary bytes must either fail cleanly or yield
// a trace that the whole downstream pipeline (stage accessors and
// profile.FromTrace) can consume without panicking.
func FuzzTraceJSON(f *testing.F) {
	var buf bytes.Buffer
	if err := seedTrace().WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"JobName":"x"}`))
	f.Add([]byte(`{"JobName":"x","NumStages":-3,"Events":[{"Stage":-1,"Task":9}]}`))
	f.Add([]byte(`{"JobName":"x","Events":[{"Stage":0,"Queued":5,"Started":1}]}`))
	f.Add([]byte(`{"JobName":"x","Events":[{"Stage":0,"Dispatched":9,"Started":1}]}`))
	f.Add([]byte(`{"JobName":"x","Completion":-1,"Events":[{"Stage":1000000,"Ended":9007199254740993}]}`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`null`))
	f.Add([]byte("\x00\xff"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := trace.ReadJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		if tr.JobName == "" {
			t.Fatal("ReadJSON accepted a trace without a job name")
		}
		// Every per-stage accessor must tolerate stage indices that do not
		// appear in the events (and events whose Stage is out of range).
		for s := -1; s <= 2; s++ {
			tr.ExecSamples(s)
			tr.InitSamples(s)
			tr.FailureRate(s)
			tr.StageWork(s)
			tr.StageQueue(s)
			tr.LongestTask(s)
		}
		tr.TotalWork()
		// Rebuilding a profile from the decoded trace is the real ingestion
		// target; it must return an error for inconsistent traces, never
		// panic. The plan's stage count intentionally differs from what the
		// trace may claim — FromTrace has to cope with both gaps (stages
		// with no events -> error) and stray out-of-range events.
		job := dag.NewBuilder("fuzz").
			Stage("map", 2).
			Stage("reduce", 1).
			Edge("map", "reduce", dag.AllToAll).
			MustBuild()
		if p, err := profile.FromTrace(job, tr); err == nil {
			// A profile that ingests cleanly must be internally usable.
			p.TotalWork()
			p.CriticalPath()
		}
	})
}
