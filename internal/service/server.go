package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"plurality"
)

// Config sizes the daemon; zero values select the defaults.
type Config struct {
	// Workers is the execution pool size (default runtime.GOMAXPROCS(0)).
	Workers int
	// QueueDepth bounds the pending-job queue; submissions beyond it are
	// rejected with 429 + Retry-After (default 64).
	QueueDepth int
	// CacheSize bounds the completed-report LRU in entries (default 256;
	// negative disables caching).
	CacheSize int
	// Logger receives structured request and lifecycle logs (default
	// slog.Default()).
	Logger *slog.Logger
}

// Server is the consensus-as-a-service daemon state: the bounded worker
// pool, the job table, the completed-report LRU and the metrics. Create one
// with New, expose Handler over HTTP, and Close it to cancel every running
// job and reap the workers.
type Server struct {
	cfg     Config
	log     *slog.Logger
	metrics *metrics

	baseCtx    context.Context
	cancelBase context.CancelCauseFunc
	wg         sync.WaitGroup
	queue      chan *task

	mu     sync.Mutex
	jobs   map[string]*task
	order  []*task          // submission order, for listing
	byKey  map[string]*task // in-flight dedupe: canonical key -> live task
	cache  *lru
	nextID atomic.Int64
}

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	switch {
	case cfg.CacheSize == 0:
		cfg.CacheSize = 256
	case cfg.CacheSize < 0:
		cfg.CacheSize = 0
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	s := &Server{
		cfg:        cfg,
		log:        cfg.Logger,
		metrics:    newMetrics(),
		baseCtx:    ctx,
		cancelBase: cancel,
		queue:      make(chan *task, cfg.QueueDepth),
		jobs:       map[string]*task{},
		byKey:      map[string]*task{},
		cache:      newLRU(cfg.CacheSize),
	}
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// Close cancels every queued and running job (cause: daemon shutdown) and
// waits for the workers to exit. The handler keeps answering reads
// afterwards; submissions land in a queue nobody drains.
func (s *Server) Close() {
	s.cancelBase(errShutdown)
	s.wg.Wait()
}

// worker executes queued tasks until shutdown, then drains the queue so no
// submitter waits on a job that will never run.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.baseCtx.Done():
			for {
				select {
				case t := <-s.queue:
					s.complete(t, StateCanceled, nil, errShutdown.Error())
				default:
					return
				}
			}
		case t := <-s.queue:
			s.runTask(t)
		}
	}
}

// runTask executes one job end to end: run (or fan out trials), classify
// the outcome, store the deterministic terminal body, cache done results
// and update the metrics.
func (s *Server) runTask(t *task) {
	if t.ctx.Err() != nil {
		// Canceled while still queued (DELETE or disconnect).
		s.complete(t, StateCanceled, nil, context.Cause(t.ctx).Error())
		return
	}
	start := time.Now()
	s.metrics.running.Add(1)
	t.mu.Lock()
	t.state = StateRunning
	t.mu.Unlock()

	var (
		reports []plurality.Report
		err     error
	)
	if t.spec.Trials > 1 {
		reports, err = t.job.Trials(t.ctx, t.spec.Trials)
	} else {
		var rep plurality.Report
		rep, err = t.job.Run(t.ctx)
		reports = []plurality.Report{rep}
	}
	bodies := make([]ReportBody, len(reports))
	for i, rep := range reports {
		bodies[i] = reportBody(rep)
	}

	state := StateDone
	errText := ""
	switch {
	case err == nil:
	case errors.Is(err, plurality.ErrNoConsensus) || errors.Is(err, plurality.ErrTimeLimit) ||
		errors.Is(err, plurality.ErrPhaseLimit):
		// Deterministic budget exhaustion: terminal, reproducible and
		// therefore cacheable, with Converged=false reports.
		errText = err.Error()
	case t.ctx.Err() != nil ||
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		// The run error wraps the cancellation cause (DELETE, stream
		// disconnect, shutdown), which the library surfaces through
		// context.Cause rather than context.Canceled itself.
		state = StateCanceled
		errText = err.Error()
	default:
		state = StateFailed
		errText = err.Error()
	}
	s.metrics.running.Add(-1)
	s.metrics.observeLatency(time.Since(start))
	s.complete(t, state, bodies, errText)
	s.log.Info("job finished",
		"id", t.id, "state", string(state), "protocol", t.spec.Protocol,
		"n", t.job.N(), "trials", t.spec.Trials,
		"seconds", time.Since(start).Seconds(), "err", errText)
}

// complete ends a task in a terminal state. It seals the terminal body,
// settles the task, and only then publishes the state. In that order a
// client that sees the job finished and at once resubmits its spec hits
// the cache instead of joining the finished task, and the metrics already
// count the job.
func (s *Server) complete(t *task, state JobState, reports []ReportBody, errText string) {
	body := t.seal(state, reports, errText)
	s.settle(t, state, body)
	t.finish(state, reports, errText, body)
}

// settle moves a terminal task out of the in-flight dedupe table, caches
// a done task's body and bumps the lifecycle counters.
func (s *Server) settle(t *task, state JobState, body []byte) {
	s.mu.Lock()
	if s.byKey[t.key] == t {
		delete(s.byKey, t.key)
	}
	if state == StateDone {
		s.cache.Add(t.key, body)
	}
	s.mu.Unlock()
	switch state {
	case StateDone:
		s.metrics.completed.Add(1)
	case StateCanceled:
		s.metrics.canceled.Add(1)
	case StateFailed:
		s.metrics.failed.Add(1)
	}
}

// Handler assembles the daemon's HTTP surface from the route registry
// (Routes) wrapped in structured request logging. Construction panics on a
// registry entry without a handler — the registry and the mux cannot
// drift apart silently.
func (s *Server) Handler() http.Handler {
	handlers := map[string]http.HandlerFunc{
		"POST /v1/jobs":            s.handleSubmit,
		"GET /v1/jobs":             s.handleList,
		"GET /v1/jobs/{id}":        s.handleGet,
		"GET /v1/jobs/{id}/stream": s.handleStream,
		"DELETE /v1/jobs/{id}":     s.handleDelete,
		"GET /v1/protocols":        s.handleProtocols,
		"GET /v1/metrics":          s.handleMetrics,
		"GET /v1/healthz":          s.handleHealthz,
	}
	mux := http.NewServeMux()
	registered := 0
	for _, r := range Routes() {
		pattern := r.Method + " " + r.Pattern
		h, ok := handlers[pattern]
		if !ok {
			panic(fmt.Sprintf("service: route %q has no handler", pattern))
		}
		mux.HandleFunc(pattern, h)
		registered++
	}
	if registered != len(handlers) {
		panic("service: handler not listed in the route registry")
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusNotFound, "not_found", "unknown endpoint; see docs/API.md")
	})
	return s.logging(mux)
}

// logging wraps the mux in structured request logging: one Info line per
// request with method, path, status, bytes and duration.
func (s *Server) logging(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(rec, r)
		s.log.Info("request",
			"method", r.Method, "path", r.URL.Path, "status", rec.status,
			"bytes", rec.bytes, "seconds", time.Since(start).Seconds())
	})
}

// statusRecorder captures the response status and size for the request log
// while passing Flush through for SSE.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	n, err := r.ResponseWriter.Write(p)
	r.bytes += int64(n)
	return n, err
}

func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// --- handlers -------------------------------------------------------------

// handleSubmit is POST /v1/jobs: validate, dedupe, cache-check, enqueue —
// or bounce with 429 + Retry-After when the queue is full.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var spec JobSpec
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "invalid_json", err.Error())
		return
	}
	key, err := spec.Key()
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid_spec", err.Error())
		return
	}

	// Fast path under the lock: replay a cached completion byte-identically
	// or join the in-flight job for the same canonical spec.
	s.mu.Lock()
	if body, ok := s.cache.Get(key); ok {
		s.mu.Unlock()
		s.metrics.submitted.Add(1)
		s.metrics.cacheHits.Add(1)
		w.Header().Set("X-Cache", "hit")
		writeBody(w, http.StatusOK, body)
		return
	}
	if live, ok := s.byKey[key]; ok {
		s.mu.Unlock()
		s.metrics.submitted.Add(1)
		w.Header().Set("X-Cache", "inflight")
		writeJSON(w, http.StatusAccepted, live.status())
		return
	}
	s.mu.Unlock()

	// Compile outside the lock; the validation path is the library's own
	// (Job.Validate), so structured 400s carry the exact library message.
	t := &task{key: key, subs: map[chan streamEvent]struct{}{}, done: make(chan struct{})}
	t.spec, t.job, err = spec.compile(t.publish)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid_spec", err.Error())
		return
	}
	t.id = "j" + strconv.FormatInt(s.nextID.Add(1), 10)
	t.state = StateQueued

	s.mu.Lock()
	// Re-check under the lock: another submitter may have won the race for
	// the same key while we compiled.
	if body, ok := s.cache.Get(key); ok {
		s.mu.Unlock()
		s.metrics.submitted.Add(1)
		s.metrics.cacheHits.Add(1)
		w.Header().Set("X-Cache", "hit")
		writeBody(w, http.StatusOK, body)
		return
	}
	if live, ok := s.byKey[key]; ok {
		s.mu.Unlock()
		s.metrics.submitted.Add(1)
		w.Header().Set("X-Cache", "inflight")
		writeJSON(w, http.StatusAccepted, live.status())
		return
	}
	// The cancelable context is created only on the enqueue path (and
	// released again on rejection) so bounced submissions do not accumulate
	// child contexts on the daemon's base context.
	t.ctx, t.cancel = context.WithCancelCause(s.baseCtx)
	select {
	case s.queue <- t:
		s.jobs[t.id] = t
		s.order = append(s.order, t)
		s.byKey[key] = t
		s.mu.Unlock()
		s.metrics.submitted.Add(1)
		s.metrics.cacheMiss.Add(1)
		writeJSON(w, http.StatusAccepted, t.status())
	default:
		s.mu.Unlock()
		t.cancel(errors.New("service: submission rejected"))
		s.metrics.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "queue_full",
			fmt.Sprintf("job queue is full (%d pending); retry after the Retry-After delay", cap(s.queue)))
	}
}

// handleList is GET /v1/jobs.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	tasks := make([]*task, len(s.order))
	copy(tasks, s.order)
	s.mu.Unlock()
	statuses := make([]JobStatus, 0, len(tasks))
	for i := len(tasks) - 1; i >= 0; i-- { // most recent first
		statuses = append(statuses, tasks[i].status())
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": statuses})
}

// lookup resolves {id} or answers 404.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (*task, bool) {
	id := r.PathValue("id")
	s.mu.Lock()
	t, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "not_found", fmt.Sprintf("unknown job %q", id))
		return nil, false
	}
	return t, true
}

// handleGet is GET /v1/jobs/{id}. Terminal jobs answer with the stored
// body, byte-identical across repeated reads and to cached replays.
func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	t, ok := s.lookup(w, r)
	if !ok {
		return
	}
	if body := t.terminalBody(); body != nil {
		writeBody(w, http.StatusOK, body)
		return
	}
	writeJSON(w, http.StatusOK, t.status())
}

// handleDelete is DELETE /v1/jobs/{id}: cancel the job's context. The
// engine loops poll it inside their hot paths, so running jobs stop within
// one poll stride; queued jobs are reaped when a worker picks them up.
func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	t, ok := s.lookup(w, r)
	if !ok {
		return
	}
	t.cancel(fmt.Errorf("service: job %s canceled by DELETE", t.id))
	writeJSON(w, http.StatusOK, t.status())
}

// handleStream is GET /v1/jobs/{id}/stream: the SSE bridge over
// WithObserver. Each connected client gets every published snapshot (up to
// its buffer; the stream is a live view, not a durable log) and a final
// "report" event carrying the terminal JobStatus. Client disconnects
// detach the subscriber; for cancelOnDisconnect jobs the last detach
// cancels the job's context.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	t, ok := s.lookup(w, r)
	if !ok {
		return
	}
	if t.spec.ObserveInterval <= 0 {
		writeError(w, http.StatusConflict, "not_streaming",
			fmt.Sprintf("job %s was not submitted with observeInterval > 0", t.id))
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "internal", "response writer cannot stream")
		return
	}
	ch := t.subscribe()
	defer t.unsubscribe(ch)
	s.metrics.streams.Add(1)
	defer s.metrics.streams.Add(-1)

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	seq := 0
	emit := func(ev streamEvent) bool {
		seq++
		if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", seq, ev.name, ev.data); err != nil {
			return false
		}
		flusher.Flush()
		return true
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, open := <-ch:
			if !open {
				// Terminal: the task stored its deterministic body before
				// closing the channel; emit the closing report event.
				emit(streamEvent{name: "report", data: t.terminalBody()})
				return
			}
			if !emit(ev) {
				return
			}
		}
	}
}

// protocolInfo is one /v1/protocols entry, mirroring the registry
// descriptor.
type protocolInfo struct {
	Name          string   `json:"name"`
	Aliases       []string `json:"aliases,omitempty"`
	Param         string   `json:"param,omitempty"`
	Samples       string   `json:"samples"`
	Summary       string   `json:"summary"`
	Source        string   `json:"source"`
	PluralityWins bool     `json:"pluralityWins"`
	Kerneled      bool     `json:"kerneled"`
	Leapable      bool     `json:"leapable"`
	Undecided     bool     `json:"undecided"`
}

// handleProtocols is GET /v1/protocols, rendered from the same registry
// that drives every other protocol resolution in the repo.
func (s *Server) handleProtocols(w http.ResponseWriter, r *http.Request) {
	var infos []protocolInfo
	for _, d := range plurality.Protocols() {
		infos = append(infos, protocolInfo{
			Name:          d.Name,
			Aliases:       d.Aliases,
			Param:         d.Param,
			Samples:       d.Samples,
			Summary:       d.Summary,
			Source:        d.Source,
			PluralityWins: d.PluralityWins,
			Kerneled:      d.Kerneled,
			Leapable:      d.Leapable,
			Undecided:     d.Undecided,
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{"protocols": infos})
}

// handleMetrics is GET /v1/metrics.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	cacheLen := s.cache.Len()
	s.mu.Unlock()
	writeJSON(w, http.StatusOK,
		s.metrics.snapshot(s.cfg.Workers, len(s.queue), cap(s.queue), cacheLen, s.cfg.CacheSize))
}

// handleHealthz is GET /v1/healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// --- wire helpers ---------------------------------------------------------

// errorBody is the structured error envelope every non-2xx response uses.
type errorBody struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// marshalJSON is the single marshaling path for deterministic bodies.
func marshalJSON(v any) ([]byte, error) { return json.Marshal(v) }

func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
	if len(body) == 0 || body[len(body)-1] != '\n' {
		w.Write([]byte("\n"))
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := marshalJSON(v)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "internal", err.Error())
		return
	}
	writeBody(w, status, body)
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	var e errorBody
	e.Error.Code = code
	e.Error.Message = msg
	body, _ := marshalJSON(e)
	writeBody(w, status, body)
}
