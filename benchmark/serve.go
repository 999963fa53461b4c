package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"plurality"
	"plurality/internal/rng"
	"plurality/internal/service"
)

const (
	// hitShare is the share of arrivals that resubmit a completed spec.
	hitShare = 0.2
	// hitWindow is how many recent completions a cache hit picks from; far
	// below the daemon's 256-entry cache, so a resubmission always hits.
	hitWindow = 32
	// pollEvery is the status polling period.
	pollEvery = time.Millisecond
	// latencyLimit is the p90 job latency a rate must meet to count as
	// sustainable.
	latencyLimit = 50 * time.Millisecond
	// warmJobs is how many jobs set-up runs through the daemon.
	warmJobs = 8
)

// servePhase is one fixed-rate phase of the open loop.
type servePhase struct {
	name     string
	rate     float64
	dur      time.Duration
	arrivals []arrival
}

// arrival is one scheduled request.
type arrival struct {
	at   time.Duration // offset from the phase start
	hit  bool          // resubmit a completed spec instead of a new one
	pick float64       // which recent completion a hit resubmits
}

// completedSpec is a finished job kept for cache-hit resubmission.
type completedSpec struct {
	spec []byte
	body []byte // the spec's first terminal body
}

// jobRecord is what the open loop measured for one arrival.
type jobRecord struct {
	phase   int
	hit     bool
	late    bool          // due in the second half of its phase
	latency time.Duration // from the due time to the first terminal answer
	rtt     time.Duration // the submission's round trip
	queue   time.Duration // submission answered until the first poll past "queued"
	polls   int
	ticks   int64
	spec    service.JobSpec // distinct jobs only
}

// pending is a distinct job the poller waits on.
type pending struct {
	id      string
	spec    []byte
	due     time.Time
	sent    time.Time
	span    int
	rec     *jobRecord
	started bool
}

type serveRunner struct {
	sz     sizes
	seed   uint64
	counts []int64
	srv    *service.Server
	ts     *httptest.Server
	client *http.Client
	phases []servePhase
	jobs   int // distinct jobs submitted so far; their seeds never repeat

	mu   sync.Mutex
	done []completedSpec

	// Traced repetitions.
	records    []*jobRecord
	lag        time.Duration
	phaseFails []int
}

func setupServe(e env) (runner, error) {
	sz := e.size
	counts, err := plurality.Biased(sz.jobN, 4, 1)
	if err != nil {
		return nil, err
	}
	srv := service.New(service.Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	r := &serveRunner{
		sz:     sz,
		seed:   e.seed,
		counts: counts,
		srv:    srv,
		ts:     httptest.NewServer(srv.Handler()),
		// Both goroutines of the open loop, the generator and the poller,
		// share at most two keep-alive connections.
		client:     &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}},
		phases:     schedule(sz, e.seed),
		phaseFails: make([]int, 2),
	}
	warm := servePhase{name: "warm-up"}
	for i := 0; i < warmJobs; i++ {
		warm.arrivals = append(warm.arrivals, arrival{at: time.Duration(i) * 10 * time.Millisecond})
	}
	if _, fails, _ := r.phase(e.ctx, e.tr, e.parent, 0, warm); len(fails) > 0 {
		r.close()
		return nil, fmt.Errorf("warm-up: %s", strings.Join(fails, "; "))
	}
	return r, nil
}

// schedule draws the open loop's fixed arrival list from the seed: Poisson
// arrivals at the low rate, then at the high rate, a phase each.
func schedule(sz sizes, seed uint64) []servePhase {
	r := rng.New(derive(seed, 5, 0))
	var phases []servePhase
	for _, p := range []servePhase{{name: "low", rate: sz.lowRate}, {name: "high", rate: sz.highRate}} {
		p.dur = sz.phase
		for at := time.Duration(0); ; {
			at += time.Duration(r.ExpFloat64() / p.rate * float64(time.Second))
			if at >= p.dur {
				break
			}
			p.arrivals = append(p.arrivals, arrival{at: at, hit: r.Float64() < hitShare, pick: r.Float64()})
		}
		phases = append(phases, p)
	}
	return phases
}

func (r *serveRunner) rep(ctx context.Context, tr *tracer, parent int) (repStats, error) {
	st := repStats{fresh: true}
	for pi, p := range r.phases {
		recs, fails, lag := r.phase(ctx, tr, parent, pi, p)
		st.attempted += len(recs)
		st.failures = append(st.failures, fails...)
		for _, rec := range recs {
			if rec.hit || rec.ticks == 0 {
				// Cache hits simulate nothing; a job without ticks failed.
				continue
			}
			st.runs = append(st.runs, runRate{"job", float64(rec.ticks) / rec.latency.Seconds()})
			st.nodes += int64(r.sz.jobN)
			st.counts = append(st.counts, rec.ticks)
		}
		if tr != nil {
			r.records = append(r.records, recs...)
			r.lag = max(r.lag, lag)
			r.phaseFails[pi] += len(fails)
		}
	}
	return st, nil
}

// phase runs one open-loop phase: this goroutine sends every arrival at its
// due time, a poller goroutine follows the distinct jobs to their terminal
// state, and phase returns once both are done. It returns one record per
// arrival, the failed checks and how late the generator ran at worst.
func (r *serveRunner) phase(ctx context.Context, tr *tracer, parent, pi int, p servePhase) ([]*jobRecord, []string, time.Duration) {
	id := tr.begin(parent, "phase "+p.name, "bench")
	defer tr.end(id)
	// Sized to the number of sends, so the generator never waits on the
	// poller.
	work := make(chan *pending, len(p.arrivals))
	var (
		wg        sync.WaitGroup
		pollFails []string
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		pollFails = r.poll(ctx, tr, work)
	}()
	var (
		recs  []*jobRecord
		fails []string
		lag   time.Duration
	)
	start := time.Now()
	for _, a := range p.arrivals {
		due := start.Add(a.at)
		time.Sleep(time.Until(due))
		lag = max(lag, time.Since(due))
		rec := &jobRecord{phase: pi, hit: a.hit, late: a.at >= p.dur/2}
		recs = append(recs, rec)
		job := tr.beginAt(id, "job", "internal/service", due)
		if a.hit {
			if fail := r.resubmit(ctx, tr, job, due, rec, a.pick); fail != "" {
				fails = append(fails, fail)
			}
			tr.end(job)
			continue
		}
		pd, fail := r.submit(ctx, tr, job, due, rec)
		if fail != "" {
			fails = append(fails, fail)
			tr.end(job)
			continue
		}
		work <- pd
	}
	close(work)
	wg.Wait()
	return recs, append(fails, pollFails...), lag
}

// submit sends a new distinct job.
func (r *serveRunner) submit(ctx context.Context, tr *tracer, job int, due time.Time, rec *jobRecord) (*pending, string) {
	r.jobs++
	rec.spec = service.JobSpec{Protocol: "two-choices", Counts: r.counts, Seed: derive(r.seed, 5, r.jobs), Model: "poisson", Engine: "occupancy"}
	body, err := json.Marshal(rec.spec)
	if err != nil {
		return nil, "submit: " + err.Error()
	}
	id := tr.begin(job, "POST /v1/jobs", "internal/service")
	start := time.Now()
	resp, out, err := r.do(ctx, http.MethodPost, "/v1/jobs", body)
	sent := time.Now()
	tr.end(id)
	rec.rtt = sent.Sub(start)
	if err != nil {
		return nil, "submit: " + err.Error()
	}
	if resp.StatusCode != http.StatusAccepted {
		return nil, fmt.Sprintf("submit: status %d: %s", resp.StatusCode, bytes.TrimSpace(out))
	}
	var st service.JobStatus
	if err := json.Unmarshal(out, &st); err != nil {
		return nil, "submit: " + err.Error()
	}
	return &pending{id: st.ID, spec: body, due: due, sent: sent, span: job, rec: rec}, ""
}

// resubmit sends a completed spec again; the daemon must answer from its
// cache with the spec's first terminal body, byte for byte.
func (r *serveRunner) resubmit(ctx context.Context, tr *tracer, job int, due time.Time, rec *jobRecord, pick float64) string {
	r.mu.Lock()
	c := r.done[int(pick*float64(len(r.done)))]
	r.mu.Unlock()
	id := tr.begin(job, "POST /v1/jobs (cached)", "internal/service")
	start := time.Now()
	resp, out, err := r.do(ctx, http.MethodPost, "/v1/jobs", c.spec)
	end := time.Now()
	tr.end(id)
	rec.rtt = end.Sub(start)
	rec.latency = end.Sub(due)
	if err != nil {
		return "cache hit: " + err.Error()
	}
	switch {
	case resp.StatusCode == http.StatusOK && resp.Header.Get("X-Cache") == "hit":
	case resp.StatusCode == http.StatusAccepted && resp.Header.Get("X-Cache") == "inflight":
		// The poller saw the terminal state a moment before the daemon
		// moved the job into its cache; wait for the stored body.
		var st service.JobStatus
		if err := json.Unmarshal(out, &st); err != nil {
			return "cache hit: " + err.Error()
		}
		if out, err = r.await(ctx, st.ID); err != nil {
			return "cache hit: " + err.Error()
		}
		rec.latency = time.Since(due)
	default:
		return fmt.Sprintf("cache hit: status %d, X-Cache %q", resp.StatusCode, resp.Header.Get("X-Cache"))
	}
	if !bytes.Equal(out, c.body) {
		return "cache hit: body differs from the spec's first terminal body"
	}
	return ""
}

// await polls a job until it is terminal and returns its body.
func (r *serveRunner) await(ctx context.Context, id string) ([]byte, error) {
	for {
		resp, out, err := r.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("status %d", resp.StatusCode)
		}
		var st service.JobStatus
		if err := json.Unmarshal(out, &st); err != nil {
			return nil, err
		}
		if st.State != service.StateQueued && st.State != service.StateRunning {
			return out, nil
		}
		time.Sleep(pollEvery)
	}
}

// poll follows every distinct job sent on work until it is terminal,
// polling each outstanding job once per pollEvery.
func (r *serveRunner) poll(ctx context.Context, tr *tracer, work <-chan *pending) []string {
	var (
		out   []*pending
		fails []string
		open  = true
	)
	for open || len(out) > 0 {
		if len(out) == 0 {
			p, ok := <-work
			if !ok {
				break
			}
			out = append(out, p)
		}
	drain:
		for open {
			select {
			case p, ok := <-work:
				if !ok {
					open = false
					break drain
				}
				out = append(out, p)
			default:
				break drain
			}
		}
		round := time.Now()
		kept := out[:0]
		for _, p := range out {
			done, fail := r.check(ctx, tr, p)
			if fail != "" {
				fails = append(fails, fail)
			}
			if !done {
				kept = append(kept, p)
			}
		}
		out = kept
		time.Sleep(time.Until(round.Add(pollEvery)))
	}
	return fails
}

// check polls one job once; done reports it needs no further polls.
func (r *serveRunner) check(ctx context.Context, tr *tracer, p *pending) (done bool, fail string) {
	id := tr.begin(p.span, "GET /v1/jobs/{id}", "internal/service")
	resp, out, err := r.do(ctx, http.MethodGet, "/v1/jobs/"+p.id, nil)
	now := time.Now()
	tr.end(id)
	p.rec.polls++
	var st service.JobStatus
	switch {
	case err != nil:
		fail = "poll: " + err.Error()
	case resp.StatusCode != http.StatusOK:
		fail = fmt.Sprintf("poll: status %d: %s", resp.StatusCode, bytes.TrimSpace(out))
	default:
		if err := json.Unmarshal(out, &st); err != nil {
			fail = "poll: " + err.Error()
		}
	}
	if fail != "" {
		tr.end(p.span)
		return true, fail
	}
	if st.State != service.StateQueued && !p.started {
		p.started = true
		p.rec.queue = now.Sub(p.sent)
	}
	if st.State == service.StateQueued || st.State == service.StateRunning {
		return false, ""
	}
	p.rec.latency = now.Sub(p.due)
	tr.end(p.span)
	if st.State != service.StateDone || len(st.Reports) != 1 {
		return true, fmt.Sprintf("job %s ended %s: %s", p.id, st.State, st.Error)
	}
	rep := st.Reports[0]
	p.rec.ticks = rep.Ticks
	switch {
	case !rep.Converged:
		return true, fmt.Sprintf("job %s did not converge", p.id)
	case rep.Winner != 0:
		return true, fmt.Sprintf("job %s: winner %d, want the plurality colour 0", p.id, rep.Winner)
	}
	r.mu.Lock()
	r.done = append(r.done, completedSpec{spec: p.spec, body: out})
	if len(r.done) > hitWindow {
		r.done = r.done[1:]
	}
	r.mu.Unlock()
	return true, ""
}

func (r *serveRunner) do(ctx context.Context, method, path string, body []byte) (*http.Response, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, r.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp, out, err
}

func (r *serveRunner) layers(ctx context.Context, tr *tracer, parent int) ([]metric, []string, error) {
	var (
		rtt, hitRTT, queue []time.Duration
		polls              int
		specs              []*jobRecord
		lat                = make([][]time.Duration, len(r.phases))
		early, late        = make([][]time.Duration, len(r.phases)), make([][]time.Duration, len(r.phases))
	)
	for _, rec := range r.records {
		lat[rec.phase] = append(lat[rec.phase], rec.latency)
		if rec.late {
			late[rec.phase] = append(late[rec.phase], rec.latency)
		} else {
			early[rec.phase] = append(early[rec.phase], rec.latency)
		}
		if rec.hit {
			hitRTT = append(hitRTT, rec.rtt)
			continue
		}
		rtt = append(rtt, rec.rtt)
		queue = append(queue, rec.queue)
		polls += rec.polls
		if len(specs) < 16 && rec.ticks > 0 {
			specs = append(specs, rec)
		}
	}
	if len(specs) == 0 {
		return nil, nil, fmt.Errorf("no completed job to measure")
	}

	// The layers under the daemon, called directly on the traced specs.
	options := func(sp service.JobSpec) []plurality.Option {
		return []plurality.Option{plurality.WithSeed(sp.Seed), plurality.WithModel(plurality.Poisson), plurality.WithEngine(plurality.EngineOccupancy)}
	}
	key := timeOps(tr, parent, "JobSpec.Key", "internal/service", 256, func(ops int) {
		for i := 0; i < ops; i++ {
			k, _ := specs[i%len(specs)].spec.Key()
			sink += int64(len(k))
		}
	})
	newJob := timeOps(tr, parent, "plurality.NewJob", "plurality", 256, func(ops int) {
		for i := 0; i < ops; i++ {
			sp := specs[i%len(specs)].spec
			if j, err := plurality.NewJob(sp.Protocol, sp.Counts, options(sp)...); err == nil {
				sink += j.N()
			}
		}
	})
	var exec []time.Duration
	var fails []string
	for _, rec := range specs {
		job, err := plurality.NewJob(rec.spec.Protocol, rec.spec.Counts, options(rec.spec)...)
		if err != nil {
			return nil, nil, err
		}
		id := tr.begin(parent, "Job.Run (outside the daemon)", "plurality")
		start := time.Now()
		rep, err := job.Run(ctx)
		exec = append(exec, time.Since(start))
		tr.end(id)
		if fail := checkRun("direct run", rep, err); fail != "" {
			fails = append(fails, fail)
		} else if rep.Ticks != rec.ticks {
			fails = append(fails, fmt.Sprintf("direct run: %d ticks, the daemon reported %d for the same spec", rep.Ticks, rec.ticks))
		}
	}

	maxRate := 0.0
	for pi, p := range r.phases {
		ms := durations(lat[pi], time.Millisecond)
		if len(ms) > 0 && quantile(ms, 0.9) <= float64(latencyLimit/time.Millisecond) && r.phaseFails[pi] == 0 &&
			median(durations(late[pi], time.Millisecond)) <= 2*median(durations(early[pi], time.Millisecond)) {
			maxRate = max(maxRate, p.rate)
		}
	}
	ms := func(ds []time.Duration, q float64) float64 { return quantile(durations(ds, time.Millisecond), q) }
	return []metric{
		{"service.key_us", "us", key.Value / 1e3, key.Samples},
		{"service.newjob_us", "us", newJob.Value / 1e3, newJob.Samples},
		{"service.exec_ms_p50", "ms", ms(exec, 0.5), len(exec)},
		{"service.submit_rtt_ms_p50", "ms", ms(rtt, 0.5), len(rtt)},
		{"service.cache_hit_rtt_ms_p50", "ms", ms(hitRTT, 0.5), len(hitRTT)},
		{"service.queue_wait_ms_p50", "ms", ms(queue, 0.5), len(queue)},
		{"service.polls_per_job", "count", float64(polls) / float64(len(rtt)), len(rtt)},
		{"service.latency_ms_p50_low", "ms", ms(lat[0], 0.5), len(lat[0])},
		{"service.latency_ms_p90_low", "ms", ms(lat[0], 0.9), len(lat[0])},
		{"service.latency_ms_p50_high", "ms", ms(lat[1], 0.5), len(lat[1])},
		{"service.latency_ms_p90_high", "ms", ms(lat[1], 0.9), len(lat[1])},
		{"service.max_rate_jobs_per_s", "jobs/s", maxRate, len(r.phases)},
		{"bench.generator_lag_ms_max", "ms", float64(r.lag) / float64(time.Millisecond), len(r.records)},
	}, fails, nil
}

func (r *serveRunner) close() {
	r.client.CloseIdleConnections()
	r.ts.Close()
	r.srv.Close()
}
