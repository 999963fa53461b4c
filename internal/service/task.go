package service

import (
	"context"
	"errors"
	"slices"
	"sync"

	"plurality"
)

// JobState is the lifecycle state of a submitted job.
type JobState string

const (
	// StateQueued: accepted, waiting for a worker.
	StateQueued JobState = "queued"
	// StateRunning: executing on a worker.
	StateRunning JobState = "running"
	// StateDone: finished deterministically — converged, or exhausted its
	// budget (ErrNoConsensus / ErrTimeLimit / ErrPhaseLimit). Done results
	// are cacheable: a re-submission of the same spec replays them.
	StateDone JobState = "done"
	// StateCanceled: interrupted by DELETE, SSE disconnect
	// (cancelOnDisconnect) or daemon shutdown. Not cached.
	StateCanceled JobState = "canceled"
	// StateFailed: an execution error that is not a deterministic budget
	// sentinel. Not cached.
	StateFailed JobState = "failed"
)

// terminal reports whether the state is final.
func (s JobState) terminal() bool {
	return s == StateDone || s == StateCanceled || s == StateFailed
}

// ReportBody is the wire form of one plurality.Report in job statuses and
// SSE report events.
type ReportBody struct {
	Kind          string  `json:"kind"`
	Protocol      string  `json:"protocol"`
	Converged     bool    `json:"converged"`
	Winner        int     `json:"winner"`
	ConsensusTime float64 `json:"consensusTime,omitempty"`
	Time          float64 `json:"time,omitempty"`
	Rounds        int     `json:"rounds,omitempty"`
	Ticks         int64   `json:"ticks,omitempty"`
	Undecided     int64   `json:"undecided,omitempty"`
	Churns        int64   `json:"churns,omitempty"`
	Corruptions   int64   `json:"corruptions,omitempty"`
	Biased        int64   `json:"biased,omitempty"`
}

// reportBody converts a library report to its wire form.
func reportBody(rep plurality.Report) ReportBody {
	return ReportBody{
		Kind:          rep.Kind.String(),
		Protocol:      rep.Protocol,
		Converged:     rep.Converged,
		Winner:        int(rep.Winner),
		ConsensusTime: rep.ConsensusTime,
		Time:          rep.Time,
		Rounds:        rep.Rounds,
		Ticks:         rep.Ticks,
		Undecided:     rep.Undecided,
		Churns:        rep.Churns,
		Corruptions:   rep.Corruptions,
		Biased:        rep.Biased,
	}
}

// SnapshotBody is the wire form of one streamed plurality.Snapshot — the
// data payload of SSE "snapshot" events.
type SnapshotBody struct {
	Time              float64 `json:"time"`
	Ticks             int64   `json:"ticks,omitempty"`
	Rounds            int     `json:"rounds,omitempty"`
	Counts            []int64 `json:"counts"`
	Undecided         int64   `json:"undecided,omitempty"`
	ConvergedFraction float64 `json:"convergedFraction"`
}

// JobStatus is the wire form of a job's current state: the body of POST
// /v1/jobs and GET /v1/jobs/{id} responses and of SSE "report" events. It
// deliberately contains no wall-clock fields, so terminal statuses are
// byte-deterministic — the property the cache's byte-identical replay and
// the serve bench's determinism gate rely on.
type JobStatus struct {
	// ID addresses the job under /v1/jobs/{id}. Deduped submissions of an
	// identical spec return the original job's ID.
	ID string `json:"id"`
	// Key is the spec's canonical cache key ("sha256:…").
	Key string `json:"key"`
	// State is the lifecycle state.
	State JobState `json:"state"`
	// Protocol, N, Trials echo the normalized spec.
	Protocol string `json:"protocol"`
	N        int64  `json:"n"`
	Trials   int    `json:"trials"`
	// Streaming reports whether the job publishes SSE snapshots.
	Streaming bool `json:"streaming,omitempty"`
	// Reports holds one entry per trial once the job is terminal (partial
	// progress included on budget exhaustion and cancellation).
	Reports []ReportBody `json:"reports,omitempty"`
	// Error is the run error for non-converged terminal states ("" when
	// every trial converged).
	Error string `json:"error,omitempty"`
}

// errDisconnected is the cancel cause when a cancelOnDisconnect job loses
// its last SSE subscriber.
var errDisconnected = errors.New("service: last stream subscriber disconnected")

// errShutdown is the cancel cause applied to queued jobs on daemon
// shutdown.
var errShutdown = errors.New("service: daemon shutting down")

// streamEvent is one SSE frame queued to a subscriber: an event name plus
// its already-marshaled JSON payload.
type streamEvent struct {
	name string
	data []byte
}

// subscriberBuffer bounds each SSE subscriber's event queue. Snapshot
// events beyond a slow subscriber's buffer are dropped (the stream is a
// live view, not a durable log); the terminal report event is always
// delivered because the SSE handler emits it itself from the stored
// terminal body once the channel closes, so publishing never blocks on a
// stuck client.
const subscriberBuffer = 256

// task is one submitted job: the compiled library Job plus lifecycle,
// cancellation and streaming fan-out state.
type task struct {
	id   string
	key  string
	spec JobSpec // normalized
	job  *plurality.Job

	ctx    context.Context
	cancel context.CancelCauseFunc

	mu          sync.Mutex
	state       JobState
	reports     []ReportBody
	errText     string
	body        []byte // marshaled terminal JobStatus
	subs        map[chan streamEvent]struct{}
	everWatched bool

	done chan struct{} // closed exactly when the state turns terminal
}

// status assembles the job's current wire status under the task lock.
func (t *task) status() JobStatus {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.statusLocked()
}

func (t *task) statusLocked() JobStatus {
	return JobStatus{
		ID:        t.id,
		Key:       t.key,
		State:     t.state,
		Protocol:  t.spec.Protocol,
		N:         t.job.N(),
		Trials:    t.spec.Trials,
		Streaming: t.spec.ObserveInterval > 0,
		Reports:   t.reports,
		Error:     t.errText,
	}
}

// publish fans one observer snapshot out to the current subscribers. It
// runs synchronously on the engine goroutine, so it must never block:
// events beyond a subscriber's buffer are dropped.
func (t *task) publish(s plurality.Snapshot) {
	body := SnapshotBody{
		Time:              s.Time,
		Ticks:             s.Ticks,
		Rounds:            s.Rounds,
		Counts:            slices.Clone(s.Counts), // Counts aliases engine scratch
		Undecided:         s.Undecided,
		ConvergedFraction: s.ConvergedFraction,
	}
	data, err := marshalJSON(body)
	if err != nil {
		return
	}
	ev := streamEvent{name: "snapshot", data: data}
	t.mu.Lock()
	for ch := range t.subs {
		select {
		case ch <- ev:
		default: // slow subscriber: drop the frame, keep the run unblocked
		}
	}
	t.mu.Unlock()
}

// seal returns the deterministic terminal body the task will publish in
// state, without publishing it.
func (t *task) seal(state JobState, reports []ReportBody, errText string) []byte {
	st := t.status()
	st.State, st.Reports, st.Error = state, reports, errText
	body, err := marshalJSON(st)
	if err != nil {
		// JobStatus marshals plain structs; this cannot fail, but fall
		// back to an explicit error body rather than a nil cache entry.
		body = []byte(`{"error":{"code":"internal","message":"status marshal failed"}}`)
	}
	return body
}

// finish publishes a terminal state and its sealed body, and closes every
// subscriber channel (the SSE handlers then emit the terminal "report"
// event from the stored body, so a stuck client can never block the
// worker). It is idempotent; only the first call wins.
func (t *task) finish(state JobState, reports []ReportBody, errText string, body []byte) {
	t.mu.Lock()
	if t.state.terminal() {
		t.mu.Unlock()
		return
	}
	t.state = state
	t.reports = reports
	t.errText = errText
	t.body = body
	subs := make([]chan streamEvent, 0, len(t.subs))
	for ch := range t.subs {
		subs = append(subs, ch)
	}
	clear(t.subs)
	t.mu.Unlock()

	for _, ch := range subs {
		close(ch)
	}
	close(t.done)
}

// terminalBody returns the stored terminal status body ("" before finish).
func (t *task) terminalBody() []byte {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.body
}

// subscribe attaches a new SSE subscriber. For terminal tasks it returns a
// pre-closed empty channel; the handler then replays the outcome from the
// stored terminal body.
func (t *task) subscribe() chan streamEvent {
	ch := make(chan streamEvent, subscriberBuffer)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.state.terminal() {
		close(ch)
		return ch
	}
	t.subs[ch] = struct{}{}
	t.everWatched = true
	return ch
}

// unsubscribe detaches a subscriber; when a cancelOnDisconnect job loses
// its last watcher the job's context is canceled — the engine loop observes
// it within its next poll stride.
func (t *task) unsubscribe(ch chan streamEvent) {
	t.mu.Lock()
	_, wasSubscribed := t.subs[ch]
	delete(t.subs, ch)
	lastGone := wasSubscribed && len(t.subs) == 0 && t.everWatched && !t.state.terminal()
	t.mu.Unlock()
	if lastGone && t.spec.CancelOnDisconnect {
		t.cancel(errDisconnected)
	}
}
