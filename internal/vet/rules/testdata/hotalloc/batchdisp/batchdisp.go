// Fixture: hotalloc over a batch-dispatch idiom, in which events buffer
// into a struct-owned batch slice and flush through one bulk insert
// (allowed: amortized appends, in-place reslice), while per-pass fresh
// buffers and per-event boxing are what the gate must flag. The shape is
// generic; no engine in this repository batches its events.
package batchdisp

type event struct {
	at   int64
	task int
}

type queue struct {
	items []event
}

func (q *queue) pushBatch(es []event) {
	q.items = append(q.items, es...)
}

type engine struct {
	q     queue
	batch []event
	byAt  map[int64][]event
}

//jockey:hotpath
func (e *engine) start(task int, at int64) {
	// Allowed: the batch buffer is owned by the engine and appends
	// amortize into its standing capacity.
	e.batch = append(e.batch, event{at: at, task: task})
}

//jockey:hotpath
func (e *engine) flush() {
	// Allowed: one bulk insert, then an in-place reslice for the next pass.
	if len(e.batch) > 0 {
		e.q.pushBatch(e.batch)
		e.batch = e.batch[:0]
	}
}

//jockey:hotpath
func (e *engine) flushFresh(tasks []int, at int64) {
	batch := make([]event, 0, len(tasks)) // want `make allocates`
	for _, task := range tasks {
		batch = append(batch, event{at: at, task: task}) // want `append to a local slice allocates`
	}
	e.q.pushBatch(batch)
}

//jockey:hotpath
func (e *engine) stageByTime(ev event) {
	// Map staging slips past the gate (appends into an owned container
	// amortize), but it forfeits the insertion order the queue's sequence
	// numbers pin — kept here to document the boundary, not a violation.
	e.byAt[ev.at] = append(e.byAt[ev.at], ev)
}

//jockey:hotpath
func (e *engine) boxed(ev event) any {
	var v any = ev // want `boxes it`
	return v
}

// Pre-sizing the batch buffer at init is cold and may allocate freely.
func (e *engine) coldInit(slots int) {
	e.batch = make([]event, 0, slots)
}
