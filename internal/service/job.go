package service

import (
	"sync"
	"time"

	"repro/internal/workload"
)

// State is a job's lifecycle state.
type State string

// Job lifecycle states.
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

// Event is one progress record of a job, streamed by
// GET /v1/jobs/{id}/events as newline-delimited JSON.
type Event struct {
	Seq  int       `json:"seq"`
	Kind string    `json:"kind"` // queued, started, progress, completed, failed, canceled, replay-verified, replay-mismatch
	Time time.Time `json:"time"`
	// Cycle is the simulated cycle for progress events (0 otherwise).
	Cycle int64 `json:"cycle,omitempty"`
	// Msg carries error text and replay verdicts.
	Msg string `json:"msg,omitempty"`
}

// Job is one submitted simulation. All fields behind mu; reads go
// through Status and EventsSince.
type Job struct {
	id   string
	spec JobSpec

	mu          sync.Mutex
	state       State
	result      *workload.Result
	errMsg      string
	errKind     string
	cacheHit    bool
	replayOf    string
	replayMatch *bool
	submitted   time.Time
	started     time.Time
	finished    time.Time
	events      []Event
	changed     chan struct{} // closed and replaced on every mutation
}

func newJob(id string, spec JobSpec, replayOf string) *Job {
	j := &Job{
		id: id, spec: spec, state: StateQueued, replayOf: replayOf,
		submitted: time.Now(), changed: make(chan struct{}),
	}
	j.appendEventLocked("queued", 0, "")
	return j
}

// ID returns the job identifier.
func (j *Job) ID() string { return j.id }

// Spec returns the stored submission document (the replay source).
func (j *Job) Spec() JobSpec { return j.spec }

// notifyLocked wakes every event-stream follower. Callers hold mu.
func (j *Job) notifyLocked() {
	close(j.changed)
	j.changed = make(chan struct{})
}

func (j *Job) appendEventLocked(kind string, cycle int64, msg string) {
	j.events = append(j.events, Event{
		Seq: len(j.events), Kind: kind, Time: time.Now(), Cycle: cycle, Msg: msg,
	})
	j.notifyLocked()
}

func (j *Job) event(kind string, cycle int64, msg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.appendEventLocked(kind, cycle, msg)
}

// JobStatus is the JSON view of a job served by GET /v1/jobs/{id}.
type JobStatus struct {
	ID       string  `json:"id"`
	State    State   `json:"state"`
	Spec     JobSpec `json:"spec"`
	CacheHit bool    `json:"route_cache_hit"`
	ReplayOf string  `json:"replay_of,omitempty"`
	// ReplayMatch, set on completed replay jobs, reports whether the
	// replay reproduced the original job's result bit for bit.
	ReplayMatch *bool            `json:"replay_match,omitempty"`
	Error       string           `json:"error,omitempty"`
	ErrorKind   string           `json:"error_kind,omitempty"`
	Result      *workload.Result `json:"result,omitempty"`
	Submitted   time.Time        `json:"submitted"`
	Started     *time.Time       `json:"started,omitempty"`
	Finished    *time.Time       `json:"finished,omitempty"`
	Events      int              `json:"events"`
}

// Status snapshots the job.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID: j.id, State: j.state, Spec: j.spec, CacheHit: j.cacheHit,
		ReplayOf: j.replayOf, ReplayMatch: j.replayMatch,
		Error: j.errMsg, ErrorKind: j.errKind, Result: j.result,
		Submitted: j.submitted, Events: len(j.events),
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	return st
}

// State returns the current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Result returns the run result (nil until done).
func (j *Job) Result() *workload.Result {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result
}

// EventsSince returns the events at sequence >= seq, a channel that
// closes on the next mutation, and whether the job has reached a
// terminal state (so followers know no further events will come once
// they have drained the returned slice).
func (j *Job) EventsSince(seq int) ([]Event, <-chan struct{}, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	var out []Event
	if seq < len(j.events) {
		out = append(out, j.events[seq:]...)
	}
	return out, j.changed, j.state.Terminal()
}

// start marks the job running.
func (j *Job) start() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = StateRunning
	j.started = time.Now()
	j.appendEventLocked("started", 0, "")
}

// fail records a failed run.
func (j *Job) fail(runErr error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.finished = time.Now()
	j.state = StateFailed
	j.errMsg = runErr.Error()
	j.appendEventLocked("failed", 0, j.errMsg)
}

// done records a completed run. A replay's verdict (nil for any other
// job) is published in the same critical section, so a reader that sees
// StateDone or the "completed" event also sees replay_match.
func (j *Job) done(res *workload.Result, replayMatch *bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.finished = time.Now()
	j.state = StateDone
	j.result = res
	j.replayMatch = replayMatch
	j.appendEventLocked("completed", res.Cycles, "")
	switch {
	case replayMatch == nil:
	case *replayMatch:
		j.appendEventLocked("replay-verified", res.Cycles, "bit-identical to "+j.replayOf)
	default:
		j.appendEventLocked("replay-mismatch", 0, "replay diverged from "+j.replayOf)
	}
}

// cancel marks a queued job canceled (shutdown drains the queue).
func (j *Job) cancel(reason string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	j.state = StateCanceled
	j.finished = time.Now()
	j.errMsg = reason
	j.errKind = ShuttingDown.String()
	j.appendEventLocked("canceled", 0, reason)
}
