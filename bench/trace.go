package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one harness-side interval around a call into a layer. Spans of
// one set-up or repetition share (Phase, Rep); Parent is the enclosing
// span's ID, 0 for a phase root.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Phase   string `json:"phase"`
	Rep     int    `json:"rep"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

func (s *span) dur() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so workloads call it
// unconditionally.
type tracer struct {
	t0    time.Time
	phase string
	rep   int
	spans []span
	open  []int // IDs of the spans enclosing the next begin
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// enter starts the root span of one set-up or repetition.
func (t *tracer) enter(phase string, rep int) int {
	if t == nil {
		return 0
	}
	t.phase, t.rep, t.open = phase, rep, t.open[:0]
	return t.begin(phase)
}

// begin opens a span as a child of the innermost open span.
func (t *tracer) begin(name string) int {
	if t == nil {
		return 0
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Phase: t.phase, Rep: t.rep,
		StartNs: int64(time.Since(t.t0)),
	})
	t.open = append(t.open, id)
	return id
}

// end closes span id and every span opened inside it.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].EndNs = int64(time.Since(t.t0))
	for n := len(t.open); n > 0; n-- {
		if t.open[n-1] == id {
			t.open = t.open[:n-1]
			return
		}
	}
}

// perRep sums, for each set-up or repetition of phase, the durations of
// the spans called name, and returns the sums in run order together with
// how many such spans each one had.
func (t *tracer) perRep(phase, name string) (secs, counts []float64) {
	index := map[int]int{}
	for i := range t.spans {
		s := &t.spans[i]
		if s.Phase != phase {
			continue
		}
		k, ok := index[s.Rep]
		if !ok {
			k = len(secs)
			index[s.Rep] = k
			secs = append(secs, 0)
			counts = append(counts, 0)
		}
		if s.Name == name {
			secs[k] += s.dur().Seconds()
			counts[k]++
		}
	}
	return secs, counts
}

// write stores the spans as JSON lines in dir/spans.jsonl.
func (t *tracer) write(dir string) error {
	f, err := os.Create(filepath.Join(dir, "spans.jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
