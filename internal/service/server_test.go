package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// quietLogger keeps test output clean.
func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// newTestServer spins a daemon behind an httptest listener and tears both
// down with the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = quietLogger()
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// fastSpec is a deterministic occupancy job that completes in milliseconds.
func fastSpec(seed uint64) JobSpec {
	return JobSpec{
		Protocol: "two-choices",
		Counts:   []int64{60_000, 40_000},
		Seed:     seed,
		Model:    "poisson",
		Engine:   "occupancy",
	}
}

// slowSpec needs ~n parallel time (Voter on a tie) — effectively unbounded
// on test timescales, and promptly cancelable inside the engine loop.
func slowSpec(seed uint64) JobSpec {
	return JobSpec{
		Protocol: "voter",
		Counts:   []int64{100_000, 100_000},
		Seed:     seed,
		Engine:   "per-node",
		MaxTime:  1e9,
	}
}

// post submits a spec and returns the response.
func post(t *testing.T, ts *httptest.Server, spec JobSpec) (*http.Response, []byte) {
	t.Helper()
	blob, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// get fetches a path and returns the response body.
func get(t *testing.T, ts *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// del cancels a job with DELETE /v1/jobs/{id}, failing on any status but
// 200.
func del(t *testing.T, ts *httptest.Server, id string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE job %s: status %d", id, resp.StatusCode)
	}
}

// waitState polls GET /v1/jobs/{id} until the job reaches want (or any
// terminal state), failing on timeout.
func waitState(t *testing.T, ts *httptest.Server, id string, want JobState, timeout time.Duration) (JobStatus, []byte) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		resp, body := get(t, ts, "/v1/jobs/"+id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET job %s: status %d: %s", id, resp.StatusCode, body)
		}
		var st JobStatus
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatalf("job %s: %v in %s", id, err, body)
		}
		if st.State == want {
			return st, body
		}
		if st.State.terminal() {
			t.Fatalf("job %s reached %s while waiting for %s: %s", id, st.State, want, body)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s waiting for %s", id, st.State, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestSubmitCompleteCachedResubmit is the contract the CI smoke also
// drives: a deterministic job completes, its terminal GET body is
// byte-stable, and re-submitting the identical spec replays exactly those
// bytes from the cache without re-execution.
func TestSubmitCompleteCachedResubmit(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8})

	resp, body := post(t, ts, fastSpec(7))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.State != StateQueued && st.State != StateRunning {
		t.Fatalf("fresh submit state = %s", st.State)
	}

	done, doneBody := waitState(t, ts, st.ID, StateDone, 30*time.Second)
	if len(done.Reports) != 1 || !done.Reports[0].Converged {
		t.Fatalf("terminal status: %s", doneBody)
	}
	if done.Reports[0].Protocol != "two-choices" {
		t.Fatalf("report protocol = %q", done.Reports[0].Protocol)
	}

	// Terminal GET is byte-stable.
	_, again := get(t, ts, "/v1/jobs/"+st.ID)
	if !bytes.Equal(doneBody, again) {
		t.Fatalf("terminal GET not byte-stable:\n%s\nvs\n%s", doneBody, again)
	}

	// Cached re-submit: 200, X-Cache: hit, byte-identical body, no second
	// execution.
	completedBefore := s.metrics.completed.Load()
	resp2, body2 := post(t, ts, fastSpec(7))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("resubmit: status %d: %s", resp2.StatusCode, body2)
	}
	if h := resp2.Header.Get("X-Cache"); h != "hit" {
		t.Fatalf("X-Cache = %q, want hit", h)
	}
	if !bytes.Equal(body2, doneBody) {
		t.Fatalf("cached body differs:\n%s\nvs\n%s", body2, doneBody)
	}
	if got := s.metrics.completed.Load(); got != completedBefore {
		t.Fatalf("cache hit re-executed the job: completed %d -> %d", completedBefore, got)
	}
	if s.metrics.cacheHits.Load() == 0 {
		t.Fatal("cache hit not counted")
	}

	// A different seed is a different key and runs fresh.
	resp3, _ := post(t, ts, fastSpec(8))
	if resp3.StatusCode != http.StatusAccepted {
		t.Fatalf("different seed: status %d, want 202", resp3.StatusCode)
	}
}

// TestReferenceJobTicks: the reference job's tick count is a pure function
// of the spec and seed, so it is pinned exactly: a change here is a change
// in the engine or in spec normalisation, not noise.
func TestReferenceJobTicks(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})

	resp, body := post(t, ts, fastSpec(1))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	done, doneBody := waitState(t, ts, st.ID, StateDone, 30*time.Second)
	if len(done.Reports) != 1 || !done.Reports[0].Converged {
		t.Fatalf("terminal status: %s", doneBody)
	}
	if done.Reports[0].Ticks != 1316982 {
		t.Fatalf("report ticks = %d, want 1316982", done.Reports[0].Ticks)
	}
}

// TestTrillionNodeAutoJobCompletes: a default-engine job of 10¹² nodes
// needs no population — the planner runs it on its counts, on the leap
// engine — so it completes instead of allocating a colour per node.
func TestTrillionNodeAutoJobCompletes(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})

	resp, body := post(t, ts, JobSpec{Protocol: "two-choices", Counts: []int64{4e11, 2e11, 2e11, 2e11}, Seed: 3})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	done, doneBody := waitState(t, ts, st.ID, StateDone, 30*time.Second)
	if len(done.Reports) != 1 || !done.Reports[0].Converged || done.Reports[0].Winner != 0 {
		t.Fatalf("terminal status: %s", doneBody)
	}
}

// TestQueueSaturationReturns429: with the single worker pinned by a long
// job and the depth-1 queue filled, further submissions bounce with 429 +
// Retry-After, and the rejection is counted. DELETE then reaps both the
// queued and the running job.
func TestQueueSaturationReturns429(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})

	respA, bodyA := post(t, ts, slowSpec(1))
	if respA.StatusCode != http.StatusAccepted {
		t.Fatalf("job A: status %d: %s", respA.StatusCode, bodyA)
	}
	var stA JobStatus
	if err := json.Unmarshal(bodyA, &stA); err != nil {
		t.Fatal(err)
	}
	waitState(t, ts, stA.ID, StateRunning, 10*time.Second)

	respB, bodyB := post(t, ts, slowSpec(2))
	if respB.StatusCode != http.StatusAccepted {
		t.Fatalf("job B: status %d, want 202 (queued)", respB.StatusCode)
	}
	var stB JobStatus
	if err := json.Unmarshal(bodyB, &stB); err != nil {
		t.Fatal(err)
	}

	respC, bodyC := post(t, ts, slowSpec(3))
	if respC.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("job C: status %d, want 429: %s", respC.StatusCode, bodyC)
	}
	if respC.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	var e errorBody
	if err := json.Unmarshal(bodyC, &e); err != nil || e.Error.Code != "queue_full" {
		t.Fatalf("429 body: %s (err %v)", bodyC, err)
	}
	if s.metrics.rejected.Load() != 1 {
		t.Fatalf("rejected = %d, want 1", s.metrics.rejected.Load())
	}

	// A queued job is reaped when the worker freed by canceling A picks it
	// up, so B is canceled first: it must never start.
	del(t, ts, stB.ID)
	del(t, ts, stA.ID)
	waitState(t, ts, stA.ID, StateCanceled, 10*time.Second)
	waitState(t, ts, stB.ID, StateCanceled, 10*time.Second)
}

// TestDeleteCancelsRunningJobPromptly: DELETE must interrupt the engine
// loop mid-run — the service-level version of the library's prompt-
// cancellation guarantee.
func TestDeleteCancelsRunningJobPromptly(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})

	_, body := post(t, ts, slowSpec(4))
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	waitState(t, ts, st.ID, StateRunning, 10*time.Second)

	start := time.Now()
	del(t, ts, st.ID)
	canceled, _ := waitState(t, ts, st.ID, StateCanceled, 10*time.Second)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v, want prompt", elapsed)
	}
	if canceled.Error == "" {
		t.Fatal("canceled status carries no error text")
	}
	if len(canceled.Reports) == 0 {
		t.Fatal("canceled status carries no partial report")
	}
}

// TestSubmitValidation: malformed JSON, unknown fields, spec errors and
// library-level option rejections all surface as structured 400s.
func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})

	for name, tc := range map[string]struct {
		body string
		code string
	}{
		"malformed json": {body: `{"protocol": `, code: "invalid_json"},
		"unknown field":  {body: `{"protocol": "voter", "counts": [2,1], "protcol": "x"}`, code: "invalid_json"},
		"unknown model":  {body: `{"protocol": "voter", "counts": [2,1], "model": "warp"}`, code: "invalid_spec"},
		"unknown protocol": {
			body: `{"protocol": "no-such", "counts": [2,1]}`, code: "invalid_spec"},
		"ignored option": {
			// responseDelay is a per-node extension; the occupancy engine
			// rejects it through Job.Validate.
			body: `{"protocol": "voter", "counts": [2,1], "engine": "occupancy", "responseDelay": 1}`,
			code: "invalid_spec"},
		"bad counts": {body: `{"protocol": "voter", "counts": [1, -2]}`, code: "invalid_spec"},
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", name, resp.StatusCode, body)
			continue
		}
		var e errorBody
		if err := json.Unmarshal(body, &e); err != nil || e.Error.Code != tc.code {
			t.Errorf("%s: body %s, want code %s", name, body, tc.code)
		}
	}
}

// TestNotFound: unknown job ids and unknown endpoints both answer
// structured 404s.
func TestNotFound(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	for _, path := range []string{"/v1/jobs/nope", "/v2/anything"} {
		resp, body := get(t, ts, path)
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: status %d, want 404", path, resp.StatusCode)
		}
		var e errorBody
		if err := json.Unmarshal(body, &e); err != nil || e.Error.Code != "not_found" {
			t.Errorf("%s: body %s", path, body)
		}
	}
}

// TestProtocolsEndpoint mirrors the registry.
func TestProtocolsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	resp, body := get(t, ts, "/v1/protocols")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out struct {
		Protocols []protocolInfo `json:"protocols"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, p := range out.Protocols {
		names[p.Name] = true
	}
	for _, want := range []string{"two-choices", "voter", "3-majority", "usd", "j-majority"} {
		if !names[want] {
			t.Errorf("protocol %s missing from %v", want, names)
		}
	}
}

// TestMetricsAndList: the observability surface reflects a short
// submit/complete/cache-hit session.
func TestMetricsAndList(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8})

	_, body := post(t, ts, fastSpec(11))
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	waitState(t, ts, st.ID, StateDone, 30*time.Second)
	post(t, ts, fastSpec(11)) // cache hit

	resp, body := get(t, ts, "/v1/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}
	var m MetricsSnapshot
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	if m.Jobs.Submitted != 2 || m.Jobs.Completed != 1 || m.Cache.Hits != 1 || m.Cache.Misses != 1 {
		t.Fatalf("metrics: %s", body)
	}
	if m.Cache.HitRate != 0.5 || m.Cache.Entries != 1 {
		t.Fatalf("cache metrics: %s", body)
	}
	if m.Latency.Count != 1 || m.Latency.P99Seconds <= 0 {
		t.Fatalf("latency metrics: %s", body)
	}
	if m.Workers != 2 || m.QueueCapacity != 8 {
		t.Fatalf("shape metrics: %s", body)
	}

	resp, body = get(t, ts, "/v1/jobs")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list: status %d", resp.StatusCode)
	}
	var list struct {
		Jobs []JobStatus `json:"jobs"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 1 || list.Jobs[0].ID != st.ID {
		t.Fatalf("list: %s", body)
	}

	resp, body = get(t, ts, "/v1/healthz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Fatalf("healthz: %d %s", resp.StatusCode, body)
	}
}

// TestResubmitAfterDoneHitsCache: a job is settled (out of the dedupe
// table, into the cache and the counters) before its terminal state is
// published. So a client that polls a fresh job until done and resubmits
// its spec at once hits the cache every time, and /v1/metrics already
// counts the job as completed.
func TestResubmitAfterDoneHitsCache(t *testing.T) {
	const rounds = 60
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8})
	for i := range rounds {
		spec := fastSpec(uint64(5000 + i))
		resp, body := post(t, ts, spec)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("round %d: submit status %d: %s", i, resp.StatusCode, body)
		}
		var st JobStatus
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		waitState(t, ts, st.ID, StateDone, 30*time.Second)
		resp, body = post(t, ts, spec)
		if h := resp.Header.Get("X-Cache"); resp.StatusCode != http.StatusOK || h != "hit" {
			t.Fatalf("round %d: resubmit after done got status %d, X-Cache %q; want 200, hit: %s",
				i, resp.StatusCode, h, body)
		}
		_, body = get(t, ts, "/v1/metrics")
		var m MetricsSnapshot
		if err := json.Unmarshal(body, &m); err != nil {
			t.Fatal(err)
		}
		if done := int64(i + 1); m.Jobs.Completed != done || m.Cache.Hits != done {
			t.Fatalf("round %d: %d jobs done, metrics count %d completed and %d cache hits: %s",
				i, done, m.Jobs.Completed, m.Cache.Hits, body)
		}
	}
}

// TestDistinctJobsAllComplete: a burst of distinct jobs on the default
// worker pool all finish, and the metrics count every completion.
func TestDistinctJobsAllComplete(t *testing.T) {
	const jobs = 24
	_, ts := newTestServer(t, Config{QueueDepth: jobs + 8})
	ids := make([]string, 0, jobs)
	for i := 0; i < jobs; i++ {
		sp := fastSpec(uint64(1001 + i))
		sp.Counts = []int64{6_000, 4_000}
		resp, body := post(t, ts, sp)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("job %d: status %d: %s", i, resp.StatusCode, body)
		}
		var st JobStatus
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		waitState(t, ts, id, StateDone, 2*time.Minute)
	}
	_, body := get(t, ts, "/v1/metrics")
	var m MetricsSnapshot
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	if m.Jobs.Completed != jobs {
		t.Fatalf("metrics: %d completed, want %d: %s", m.Jobs.Completed, jobs, body)
	}
}

// TestInflightDedupe: concurrent submissions of one spec join the same job
// instead of executing twice.
func TestInflightDedupe(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})

	_, bodyA := post(t, ts, slowSpec(9))
	var stA JobStatus
	if err := json.Unmarshal(bodyA, &stA); err != nil {
		t.Fatal(err)
	}
	respB, bodyB := post(t, ts, slowSpec(9))
	if respB.StatusCode != http.StatusAccepted {
		t.Fatalf("dedupe submit: status %d", respB.StatusCode)
	}
	if h := respB.Header.Get("X-Cache"); h != "inflight" {
		t.Fatalf("X-Cache = %q, want inflight", h)
	}
	var stB JobStatus
	if err := json.Unmarshal(bodyB, &stB); err != nil {
		t.Fatal(err)
	}
	if stB.ID != stA.ID {
		t.Fatalf("dedupe returned a different job: %s vs %s", stB.ID, stA.ID)
	}
}

// TestTrialsJob: a multi-trial spec fans out through Job.Trials and
// returns one report per trial.
func TestTrialsJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 4})
	sp := fastSpec(13)
	sp.Trials = 3
	_, body := post(t, ts, sp)
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	done, _ := waitState(t, ts, st.ID, StateDone, 60*time.Second)
	if len(done.Reports) != 3 {
		t.Fatalf("reports = %d, want 3", len(done.Reports))
	}
	for i, rep := range done.Reports {
		if !rep.Converged {
			t.Errorf("trial %d did not converge: %+v", i, rep)
		}
	}
}

// TestHandlerPanicsOnRouteDrift: a registry entry without a handler is a
// construction-time panic, not a silent 404.
func TestHandlerPanicsOnRouteDrift(t *testing.T) {
	// The real Handler must construct cleanly.
	s, _ := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	func() {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Handler panicked on the committed registry: %v", r)
			}
		}()
		_ = s.Handler()
	}()
	// Route uniqueness: duplicate patterns would shadow handlers.
	seen := map[string]bool{}
	for _, r := range Routes() {
		key := r.Method + " " + r.Pattern
		if seen[key] {
			t.Errorf("duplicate route %q", key)
		}
		seen[key] = true
		if r.Summary == "" || r.Response == "" || r.Statuses == "" {
			t.Errorf("route %q has empty documentation fields: %+v", key, r)
		}
	}
	_ = fmt.Sprintf // keep fmt imported for future use
}
