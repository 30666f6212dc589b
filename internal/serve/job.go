// Package serve turns the annealer into a long-lived shared service:
// clients submit solve jobs over HTTP, a bounded-concurrency scheduler
// multiplexes them onto a fixed pool of solver slots (the software
// analogue of many users time-sharing one annealer chip), progress
// streams out as server-sent events at the solver's write-back-epoch
// granularity, and finished results are retained for a TTL.
//
// Each step of a job's life exists once in the Scheduler: admit is the
// one admission path (Submit, SubmitBatch and Resubmit all call it:
// quotas, IDs, one journal fsync per call, gauges before the queue),
// settle is the only code that makes a job terminal, and Metrics.move
// shifts a job between states in the aggregate, per-problem and
// per-tenant counter sets at once.
package serve

import (
	"context"
	"encoding/json"
	"sync"
	"time"

	"cimsa/internal/problem"
)

// State is a job's lifecycle phase.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Event is one entry of a job's event stream (an SSE frame on the
// wire). Type "progress" carries a solver ProgressEvent; the terminal
// types "done", "failed" and "canceled" close the stream, with Length
// set on "done" and Error on "failed". A synthetic "truncated" frame
// (Seq 0, never stored) warns a connecting client that Evicted events
// were dropped from the replay buffer and the stream resumes at
// FirstSeq.
type Event struct {
	Type     string            `json:"type"`
	Seq      int               `json:"seq"`
	Job      string            `json:"job"`
	Progress *problem.Progress `json:"progress,omitempty"`
	Length   float64           `json:"length,omitempty"`
	Error    string            `json:"error,omitempty"`
	Evicted  int               `json:"evicted,omitempty"`
	FirstSeq int               `json:"first_seq,omitempty"`
}

// maxReplayEvents is the default bound on each job's event replay
// buffer (Config.ReplayBuffer overrides it); the oldest events are
// evicted first (a job with huge Restarts would otherwise accumulate
// one event per replica epoch without bound).
const maxReplayEvents = 512

// Job is one submitted solve tracked by the scheduler.
type Job struct {
	// ID is the job's opaque identifier.
	ID string

	// Tenant is the canonical lane the job is scheduled and accounted
	// under (fairsched.DefaultTenant when the submission carried no
	// identity); set at submission, immutable afterwards.
	Tenant string

	task problem.Task

	// ctx is the solve's context; cancel aborts it (set at creation,
	// immutable afterwards).
	ctx    context.Context
	cancel context.CancelFunc

	// done is closed exactly once when the job reaches a terminal state.
	done chan struct{}

	// replayLimit caps len(events); set from Config.ReplayBuffer at
	// submission, immutable afterwards.
	replayLimit int

	// journaled marks a job with a live journal record to retire when it
	// reaches a terminal state (set at submission, immutable afterwards).
	journaled bool

	// source is the job's journalable request body (nil when the
	// submission carried none); set at submission, immutable afterwards.
	// The fleet dispatcher ships it to whichever worker claims the job,
	// so a remote node rebuilds exactly the task this scheduler admitted.
	source json.RawMessage

	mu        sync.Mutex
	state     State
	submitted time.Time
	started   time.Time
	finished  time.Time
	expires   time.Time
	result    *problem.Result
	err       error
	cached    bool // result served from the cache, no solve ran
	seq       int
	events    []Event
	evicted   int
	subs      map[chan Event]struct{}
}

// Status is the wire representation of a job's current state.
type Status struct {
	ID string `json:"id"`
	// Problem is the registered problem type ("tsp", "maxcut", ...).
	Problem string `json:"problem"`
	// Tenant is the lane the job was scheduled under.
	Tenant    string     `json:"tenant,omitempty"`
	State     State      `json:"state"`
	Instance  string     `json:"instance"`
	N         int        `json:"n"`
	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started,omitempty"`
	Finished  *time.Time `json:"finished,omitempty"`
	// Length and OptimalRatio are filled once the job is done: the
	// problem's headline objective (tour length, cut weight, energy)
	// and its normalized quality score where the backend computes one.
	// The field names predate the multi-problem registry and stay for
	// wire compatibility.
	Length       float64 `json:"length,omitempty"`
	OptimalRatio float64 `json:"optimal_ratio,omitempty"`
	Error        string  `json:"error,omitempty"`
	// EventsEvicted counts progress events dropped from the replay
	// buffer; a non-zero value means an events stream opened now starts
	// at seq EventsEvicted+1, not 1.
	EventsEvicted int `json:"events_evicted,omitempty"`
	// Cached marks a done job whose result was served from the result
	// cache (bit-identical to a fresh solve; no solver ran).
	Cached bool `json:"cached,omitempty"`
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Status snapshots the job for status responses.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:        j.ID,
		Problem:   j.task.Problem(),
		Tenant:    j.Tenant,
		State:     j.state,
		Instance:  j.task.Label(),
		N:         j.task.Size(),
		Submitted: j.submitted,
		Cached:    j.cached,
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	if j.result != nil {
		st.Length = j.result.Objective
		st.OptimalRatio = j.result.Quality
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	st.EventsEvicted = j.evicted
	return st
}

// Result returns the finished result, or nil while the job is not done.
func (j *Job) Result() *problem.Result {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result
}

// Task returns the job's validated task.
func (j *Job) Task() problem.Task { return j.task }

// publish appends an event to the replay buffer and fans it out to the
// live subscribers. Slow subscribers lose events rather than stalling
// the solve (their channel send is non-blocking); the replay buffer
// keeps the most recent maxReplayEvents.
func (j *Job) publish(typ string, progress *problem.Progress, length float64, errMsg string) {
	limit := j.replayLimit
	if limit <= 0 {
		limit = maxReplayEvents
	}
	j.mu.Lock()
	j.seq++
	ev := Event{Type: typ, Seq: j.seq, Job: j.ID, Progress: progress, Length: length, Error: errMsg}
	j.events = append(j.events, ev)
	if len(j.events) > limit {
		drop := len(j.events) - limit
		j.events = append(j.events[:0], j.events[drop:]...)
		j.evicted += drop
	}
	subs := make([]chan Event, 0, len(j.subs))
	for ch := range j.subs {
		subs = append(subs, ch)
	}
	terminal := State("")
	switch typ {
	case "done":
		terminal = StateDone
	case "failed":
		terminal = StateFailed
	case "canceled":
		terminal = StateCanceled
	}
	if terminal != "" {
		// Terminal event: detach every subscriber; each channel is closed
		// after its final send so streams end after draining.
		j.subs = nil
	}
	j.mu.Unlock()
	for _, ch := range subs {
		select {
		case ch <- ev:
		default:
		}
		if terminal != "" {
			close(ch)
		}
	}
}

// Subscribe returns the replayable history, the number of events
// evicted from it (the replay starts at seq evicted+1 when non-zero), a
// channel of future events (closed after the terminal event), and an
// unsubscribe function. A subscriber attaching after the job finished
// gets the full replay and an already-closed channel.
func (j *Job) Subscribe() (replay []Event, evicted int, ch chan Event, unsub func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	replay = append([]Event(nil), j.events...)
	evicted = j.evicted
	ch = make(chan Event, 128)
	if j.state.Terminal() {
		close(ch)
		return replay, evicted, ch, func() {}
	}
	if j.subs == nil {
		j.subs = map[chan Event]struct{}{}
	}
	j.subs[ch] = struct{}{}
	return replay, evicted, ch, func() {
		j.mu.Lock()
		if _, live := j.subs[ch]; live {
			delete(j.subs, ch)
		}
		j.mu.Unlock()
	}
}
