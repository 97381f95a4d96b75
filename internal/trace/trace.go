// Package trace records executions of data-parallel jobs: one event per task
// attempt plus an allocation timeline sampled by the control loop. Traces
// are the raw material for job profiles (package profile), for the paper's
// time-lapse figures (Fig. 6), and for the training-vs-actual comparison of
// Table 3.
//
// All times are offsets from the start of the job, as time.Duration.
package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"slices"
	"strconv"
	"time"
)

// TaskEvent describes one attempt of one task.
type TaskEvent struct {
	Stage      int           // stage index within the job's plan
	Task       int           // task index within the stage
	Attempt    int           // 0 for the first attempt, 1+ for re-executions
	Queued     time.Duration // when the task became schedulable
	Dispatched time.Duration // when it received a token
	Started    time.Duration // when it began executing (after init latency)
	Ended      time.Duration // when it finished or failed
	Failed     bool          // true if this attempt failed and was re-queued
}

// QueueTime returns how long the attempt spent between becoming schedulable
// and executing: token wait plus initialization (the paper's "enqueued"
// time, which feeds the totalworkWithQ indicator).
func (e TaskEvent) QueueTime() time.Duration { return e.Started - e.Queued }

// InitTime returns the scheduling/initialization latency alone: the time
// between receiving a token and executing. Profiles use it as the per-task
// init distribution, so that replaying a profile does not double-count
// token waiting.
func (e TaskEvent) InitTime() time.Duration { return e.Started - e.Dispatched }

// ExecTime returns how long the attempt executed.
func (e TaskEvent) ExecTime() time.Duration { return e.Ended - e.Started }

// AllocPoint is one sample of the allocation timeline (the series plotted in
// Fig. 6 of the paper).
type AllocPoint struct {
	T         time.Duration // sample time since job start
	Raw       int           // raw allocation requested by the policy (blue line)
	Granted   int           // smoothed allocation set by the policy (black line)
	Running   int           // number of vertices currently running (red line)
	Oracle    int           // oracle allocation ⌈T/d⌉ (green line)
	Progress  float64       // progress-indicator value in [0, 1]
	Predicted time.Duration // policy's completion-time estimate T_t at this sample
	Mode      string        // guard mode that produced the decision ("" if unguarded)
	Deviation float64       // guard's misprediction score at this sample (0 if unguarded)
}

// JobTrace is the complete record of one job execution.
type JobTrace struct {
	JobName    string
	NumStages  int
	Events     []TaskEvent
	Timeline   []AllocPoint
	Completion time.Duration // end-to-end job latency
}

// New creates an empty trace for a job with the given stage count.
func New(jobName string, numStages int) *JobTrace {
	return &JobTrace{JobName: jobName, NumStages: numStages}
}

// Reset clears the trace in place for reuse, keeping the Events and
// Timeline capacity. A reusable simulation engine (sim.Runner) records
// thousands of traces into one JobTrace; after the first few runs the
// backing arrays reach their high-water size and recording stops
// allocating.
func (t *JobTrace) Reset(jobName string, numStages int) {
	t.JobName = jobName
	t.NumStages = numStages
	t.Events = t.Events[:0]
	t.Timeline = t.Timeline[:0]
	t.Completion = 0
}

// AddTask appends a task-attempt event.
func (t *JobTrace) AddTask(e TaskEvent) { t.Events = append(t.Events, e) }

// AddAlloc appends an allocation-timeline sample.
func (t *JobTrace) AddAlloc(p AllocPoint) { t.Timeline = append(t.Timeline, p) }

// ExecSamples returns the execution times of all successful attempts in the
// given stage, sorted ascending. Failed attempts are excluded because their
// truncated runtimes are not service-time observations.
func (t *JobTrace) ExecSamples(stage int) []time.Duration {
	var out []time.Duration
	for _, e := range t.Events {
		if e.Stage == stage && !e.Failed {
			out = append(out, e.ExecTime())
		}
	}
	slices.Sort(out)
	return out
}

// InitSamples returns the initialization latencies of all successful
// attempts in the given stage, sorted ascending.
func (t *JobTrace) InitSamples(stage int) []time.Duration {
	var out []time.Duration
	for _, e := range t.Events {
		if e.Stage == stage && !e.Failed {
			out = append(out, e.InitTime())
		}
	}
	slices.Sort(out)
	return out
}

// AllExecSamples returns execution times of successful attempts across all
// stages, sorted ascending.
func (t *JobTrace) AllExecSamples() []time.Duration {
	var out []time.Duration
	for _, e := range t.Events {
		if !e.Failed {
			out = append(out, e.ExecTime())
		}
	}
	slices.Sort(out)
	return out
}

// AllQueueSamples returns queueing delays of successful attempts across all
// stages, sorted ascending.
func (t *JobTrace) AllQueueSamples() []time.Duration {
	var out []time.Duration
	for _, e := range t.Events {
		if !e.Failed {
			out = append(out, e.QueueTime())
		}
	}
	slices.Sort(out)
	return out
}

// FailureRate returns the fraction of attempts in the stage that failed.
// It returns 0 for a stage with no recorded attempts.
func (t *JobTrace) FailureRate(stage int) float64 {
	attempts, failures := 0, 0
	for _, e := range t.Events {
		if e.Stage == stage {
			attempts++
			if e.Failed {
				failures++
			}
		}
	}
	if attempts == 0 {
		return 0
	}
	return float64(failures) / float64(attempts)
}

// TotalWork returns the aggregate execution time of all attempts (the job's
// total CPU consumption, including work lost to failures). This is the T
// used by the oracle allocation O(T, d) = ⌈T/d⌉.
func (t *JobTrace) TotalWork() time.Duration {
	var sum time.Duration
	for _, e := range t.Events {
		sum += e.ExecTime()
	}
	return sum
}

// StageWork returns the aggregate execution time of successful attempts in
// the stage (the paper's T_s).
func (t *JobTrace) StageWork(stage int) time.Duration {
	var sum time.Duration
	for _, e := range t.Events {
		if e.Stage == stage && !e.Failed {
			sum += e.ExecTime()
		}
	}
	return sum
}

// StageQueue returns the aggregate queueing time of successful attempts in
// the stage (the paper's Q_s).
func (t *JobTrace) StageQueue(stage int) time.Duration {
	var sum time.Duration
	for _, e := range t.Events {
		if e.Stage == stage && !e.Failed {
			sum += e.QueueTime()
		}
	}
	return sum
}

// LongestTask returns the longest successful execution time in the stage
// (the paper's l_s), or 0 if the stage has no recorded attempts.
func (t *JobTrace) LongestTask(stage int) time.Duration {
	var best time.Duration
	for _, e := range t.Events {
		if e.Stage == stage && !e.Failed && e.ExecTime() > best {
			best = e.ExecTime()
		}
	}
	return best
}

// StageSpan returns the first queue time and last end time observed in the
// stage, used by the minstage indicators (the paper's tb_s and te_s relative
// stage start/end times). ok is false if the stage has no events.
func (t *JobTrace) StageSpan(stage int) (begin, end time.Duration, ok bool) {
	first := true
	for _, e := range t.Events {
		if e.Stage != stage {
			continue
		}
		if first {
			begin, end, ok, first = e.Queued, e.Ended, true, false
			continue
		}
		if e.Queued < begin {
			begin = e.Queued
		}
		if e.Ended > end {
			end = e.Ended
		}
	}
	return begin, end, ok
}

// WriteTimelineCSV writes the allocation timeline as CSV (the data behind
// the paper's Fig. 6 plots).
func (t *JobTrace) WriteTimelineCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"t_s", "raw", "granted", "running", "oracle", "progress", "predicted_s", "mode", "deviation"}); err != nil {
		return err
	}
	for _, p := range t.Timeline {
		rec := []string{
			fmt.Sprintf("%.1f", p.T.Seconds()),
			strconv.Itoa(p.Raw), strconv.Itoa(p.Granted),
			strconv.Itoa(p.Running), strconv.Itoa(p.Oracle),
			fmt.Sprintf("%.4f", p.Progress),
			fmt.Sprintf("%.1f", p.Predicted.Seconds()),
			p.Mode,
			fmt.Sprintf("%.4f", p.Deviation),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
