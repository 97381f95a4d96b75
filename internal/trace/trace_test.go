package trace

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func sampleTrace() *JobTrace {
	t := New("demo", 2)
	sec := func(n int) time.Duration { return time.Duration(n) * time.Second }
	t.AddTask(TaskEvent{Stage: 0, Task: 0, Queued: sec(0), Started: sec(1), Ended: sec(5)})
	t.AddTask(TaskEvent{Stage: 0, Task: 1, Queued: sec(0), Started: sec(2), Ended: sec(4)})
	t.AddTask(TaskEvent{Stage: 0, Task: 2, Queued: sec(1), Started: sec(2), Ended: sec(3), Failed: true})
	t.AddTask(TaskEvent{Stage: 0, Task: 2, Attempt: 1, Queued: sec(3), Started: sec(4), Ended: sec(10)})
	t.AddTask(TaskEvent{Stage: 1, Task: 0, Queued: sec(10), Started: sec(12), Ended: sec(20)})
	t.Completion = sec(20)
	return t
}

func TestEventAccessors(t *testing.T) {
	e := TaskEvent{Queued: time.Second, Started: 3 * time.Second, Ended: 7 * time.Second}
	if e.QueueTime() != 2*time.Second || e.ExecTime() != 4*time.Second {
		t.Fatalf("accessors wrong: q=%v e=%v", e.QueueTime(), e.ExecTime())
	}
}

func TestExecQueueSamples(t *testing.T) {
	tr := sampleTrace()
	ex := tr.ExecSamples(0)
	if len(ex) != 3 {
		t.Fatalf("ExecSamples len = %d, want 3 (failed attempt excluded)", len(ex))
	}
	if ex[0] != 2*time.Second || ex[2] != 6*time.Second {
		t.Errorf("ExecSamples = %v (want sorted 2s..6s)", ex)
	}
	if got := len(tr.AllExecSamples()); got != 4 {
		t.Errorf("AllExecSamples len = %d", got)
	}
	if got := len(tr.AllQueueSamples()); got != 4 {
		t.Errorf("AllQueueSamples len = %d", got)
	}
}

func TestFailureRate(t *testing.T) {
	tr := sampleTrace()
	if got := tr.FailureRate(0); got != 0.25 {
		t.Errorf("FailureRate(0) = %v, want 0.25", got)
	}
	if got := tr.FailureRate(1); got != 0 {
		t.Errorf("FailureRate(1) = %v", got)
	}
	if got := tr.FailureRate(9); got != 0 {
		t.Errorf("FailureRate(empty) = %v", got)
	}
}

func TestWorkAggregates(t *testing.T) {
	tr := sampleTrace()
	// All attempts: 4+2+1+6+8 = 21s.
	if got := tr.TotalWork(); got != 21*time.Second {
		t.Errorf("TotalWork = %v", got)
	}
	// Successful stage-0 attempts: 4+2+6 = 12s.
	if got := tr.StageWork(0); got != 12*time.Second {
		t.Errorf("StageWork(0) = %v", got)
	}
	// Successful stage-0 queueing: 1+2+1 = 4s.
	if got := tr.StageQueue(0); got != 4*time.Second {
		t.Errorf("StageQueue(0) = %v", got)
	}
	if got := tr.LongestTask(0); got != 6*time.Second {
		t.Errorf("LongestTask(0) = %v", got)
	}
	if got := tr.LongestTask(7); got != 0 {
		t.Errorf("LongestTask(empty) = %v", got)
	}
}

func TestStageSpan(t *testing.T) {
	tr := sampleTrace()
	b, e, ok := tr.StageSpan(0)
	if !ok || b != 0 || e != 10*time.Second {
		t.Errorf("StageSpan(0) = %v,%v,%v", b, e, ok)
	}
	if _, _, ok := tr.StageSpan(5); ok {
		t.Error("StageSpan of empty stage should be !ok")
	}
}

func TestCSVExports(t *testing.T) {
	tr := sampleTrace()
	tr.AddAlloc(AllocPoint{T: time.Minute, Raw: 40, Granted: 35, Running: 30, Oracle: 20,
		Progress: 0.5, Predicted: 30 * time.Minute})
	var tl bytes.Buffer
	if err := tr.WriteTimelineCSV(&tl); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tl.String(), "40,35,30,20") {
		t.Errorf("timeline CSV missing row: %s", tl.String())
	}
}

func TestJSONRoundTrip(t *testing.T) {
	tr := sampleTrace()
	tr.AddAlloc(AllocPoint{T: time.Minute, Raw: 4, Granted: 3, Running: 2, Oracle: 1})
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.JobName != tr.JobName || len(back.Events) != len(tr.Events) ||
		len(back.Timeline) != len(tr.Timeline) || back.Completion != tr.Completion {
		t.Fatalf("round trip mismatch: %+v", back)
	}
	for i := range tr.Events {
		if back.Events[i] != tr.Events[i] {
			t.Fatalf("event %d differs", i)
		}
	}
}

func TestReadJSONErrors(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("{")); err == nil {
		t.Error("invalid JSON must fail")
	}
	if _, err := ReadJSON(strings.NewReader("{}")); err == nil {
		t.Error("missing job name must fail")
	}
	bad := `{"JobName":"x","Events":[{"Queued":5000000000,"Started":1000000000,"Ended":2000000000}]}`
	if _, err := ReadJSON(strings.NewReader(bad)); err == nil {
		t.Error("inconsistent timestamps must fail")
	}
}
