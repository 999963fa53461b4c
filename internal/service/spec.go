// Package service is the consensus-as-a-service layer behind cmd/pluralityd:
// an HTTP daemon over the public Job/Report API. It accepts JSON job specs,
// validates them through the same Job.Validate path the library uses,
// executes them on a bounded worker pool with queue backpressure (429 +
// Retry-After when the queue is full), dedupes and caches completed results
// keyed by the canonicalized spec (runs are deterministic given the seed, so
// a cache hit is byte-identical to the original execution), streams live
// Snapshot trajectories over Server-Sent Events by bridging WithObserver,
// and supports cancellation wired into the context hooks every engine
// honors.
//
// The HTTP contract — endpoints, JSON schemas, SSE events, error codes,
// backpressure semantics — is documented in docs/API.md; the endpoint table
// there is generated from this package's route registry (Routes/APITable)
// and a drift test keeps the two in sync, mirroring the api.txt gate on the
// library surface.
package service

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"

	"plurality"
	"plurality/internal/runspec"
)

// JobSpec is the JSON body of POST /v1/jobs: a declarative protocol run.
// Zero-valued optional fields select the library defaults and are omitted
// from the canonical cache key representation only after normalization, so
// equivalent spellings of the same run dedupe onto one cache entry.
type JobSpec struct {
	// Protocol is the job spec resolved by plurality.NewJob: "core",
	// "onebit", or any registry spec such as "two-choices", "usd" or
	// "j-majority:5".
	Protocol string `json:"protocol"`
	// Counts is the initial color histogram; counts[i] nodes start with
	// color i.
	Counts []int64 `json:"counts"`
	// Seed roots the run's determinism; 0 selects the library default (1).
	Seed uint64 `json:"seed,omitempty"`
	// Model is the communication model: "sequential" (default), "poisson"
	// or "synchronous".
	Model string `json:"model,omitempty"`
	// Engine selects the dynamics execution engine: "auto" (default),
	// "per-node", "occupancy" or "leap".
	Engine string `json:"engine,omitempty"`
	// MaxTime bounds asynchronous runs in parallel time (0 = library
	// default).
	MaxTime float64 `json:"maxTime,omitempty"`
	// MaxRounds bounds synchronous runs (0 = library default).
	MaxRounds int `json:"maxRounds,omitempty"`
	// MaxPhases bounds OneExtraBit runs in phases (0 = the library's
	// DefaultMaxPhases).
	MaxPhases int `json:"maxPhases,omitempty"`
	// Churn is the per-activation churn probability (0 = none).
	Churn float64 `json:"churn,omitempty"`
	// ResponseDelay is the §4 Exp(rate) response-delay extension (0 = none).
	ResponseDelay float64 `json:"responseDelay,omitempty"`
	// LeapEpsilon is the leap engine's tau-leap error budget (0 = default).
	LeapEpsilon float64 `json:"leapEpsilon,omitempty"`
	// ODEThreshold is the leap engine's mean-field handoff threshold
	// (0 = default; -1 disables the ODE regime).
	ODEThreshold float64 `json:"odeThreshold,omitempty"`
	// Adversary names a registered adversary ("minority-bias", "delay-set",
	// "late", "corrupt", "byzantine" or an alias; "" and "none" mean no
	// adversary). Budget is its power f per window — a zero budget
	// deactivates the adversary entirely, so the pair normalizes away and
	// the run shares its cache entry with the clean spelling. AdversaryLag
	// is the observation lag ℓ required by the lag-parameterized
	// adversaries ("late").
	Adversary    string  `json:"adversary,omitempty"`
	Budget       int64   `json:"budget,omitempty"`
	AdversaryLag float64 `json:"adversaryLag,omitempty"`
	// Trials fans the job out as Job.Trials(ctx, Trials) deterministic
	// pooled trials (0 and 1 both mean a single Job.Run).
	Trials int `json:"trials,omitempty"`
	// ObserveInterval enables SSE streaming: snapshots are published every
	// ObserveInterval units of parallel time (rounds/phases for synchronous
	// runners) to GET /v1/jobs/{id}/stream subscribers. Streaming jobs are
	// single-run (Trials must be 0 or 1). Note that observation is part of
	// the cache key: on the count-collapsed engine an observed run executes
	// tick-by-tick, which draws a different (identically distributed) RNG
	// stream than an unobserved one.
	ObserveInterval float64 `json:"observeInterval,omitempty"`
	// CancelOnDisconnect cancels the job's context when its last SSE
	// subscriber disconnects (after at least one connected) — the
	// live-trajectory-only mode. It is a lifecycle knob, not part of the
	// run, and is excluded from the cache key.
	CancelOnDisconnect bool `json:"cancelOnDisconnect,omitempty"`
}

// run is the spec's view in the shared run vocabulary.
func (sp JobSpec) run() runspec.Run {
	return runspec.Run{
		Protocol: sp.Protocol, Counts: sp.Counts, Seed: sp.Seed, Model: sp.Model, Engine: sp.Engine,
		LeapEps: sp.LeapEpsilon, ODETheta: sp.ODEThreshold,
		MaxTime: sp.MaxTime, MaxRounds: sp.MaxRounds, MaxPhases: sp.MaxPhases,
		Churn: sp.Churn, ResponseDelay: sp.ResponseDelay,
		Adversary: sp.Adversary, Budget: strconv.FormatInt(sp.Budget, 10), Lag: sp.AdversaryLag,
	}
}

// normalize fills the defaults that do not change the run (seed, trials,
// model/engine names) so equivalent spellings share one canonical key, and
// validates the service-level constraints the library cannot see.
func (sp JobSpec) normalize() (JobSpec, error) {
	if sp.Seed == 0 {
		sp.Seed = 1 // the library default seed
	}
	if sp.Trials == 0 {
		sp.Trials = 1
	}
	if sp.Trials < 0 {
		return sp, fmt.Errorf("trials = %d, want >= 0", sp.Trials)
	}
	// The first row of each table is the library default.
	sp.Model = cmp.Or(sp.Model, runspec.Models[0].Name)
	sp.Engine = cmp.Or(sp.Engine, runspec.Engines[0].Name)
	if _, err := runspec.LookupModel(sp.Model); err != nil {
		return sp, err
	}
	if _, err := runspec.LookupEngine(sp.Engine); err != nil {
		return sp, err
	}
	if sp.ObserveInterval < 0 {
		return sp, fmt.Errorf("observeInterval = %v, want >= 0", sp.ObserveInterval)
	}
	spec, err := sp.run().AdversarySpec()
	if err != nil {
		return sp, err
	}
	if !spec.Active() {
		// An inactive adversary (no name, "none", or a zero budget) is
		// bit-identical to the clean run, so all three fields normalize away
		// and both spellings share one cache entry.
		sp.Adversary, sp.Budget, sp.AdversaryLag = "", 0, 0
	} else {
		// Canonicalize aliases ("liar" → "byzantine") and fold an inline lag
		// ("late:2") into the field form for the same reason.
		sp.Adversary = spec.Name
		sp.AdversaryLag = spec.Lag
	}
	if sp.ObserveInterval > 0 && sp.Trials > 1 {
		return sp, fmt.Errorf("streaming jobs are single-run: observeInterval > 0 needs trials <= 1, got %d", sp.Trials)
	}
	if sp.CancelOnDisconnect && sp.ObserveInterval <= 0 {
		return sp, fmt.Errorf("cancelOnDisconnect needs a streaming job (observeInterval > 0)")
	}
	return sp, nil
}

// compile normalizes the spec and binds it through plurality.NewJob — the
// exact validation path library callers get, so the daemon rejects
// everything the library would (ignored options included) before anything
// is queued. observe is the streaming fan-out bound as the job's
// WithObserver callback when the spec requests observation; it may be nil
// only for specs with ObserveInterval == 0.
func (sp JobSpec) compile(observe func(plurality.Snapshot)) (JobSpec, *plurality.Job, error) {
	norm, err := sp.normalize()
	if err != nil {
		return norm, nil, err
	}
	// The observer is bound here, not by the run: the executing task owns
	// the snapshot fan-out.
	opts, err := norm.run().Options()
	if err != nil {
		return norm, nil, err
	}
	if norm.ObserveInterval > 0 {
		opts = append(opts, plurality.WithObserver(norm.ObserveInterval, observe))
	}
	job, err := plurality.NewJob(norm.Protocol, norm.Counts, opts...)
	if err != nil {
		return norm, nil, err
	}
	return norm, job, nil
}

// Key returns the canonical cache key of the spec: a SHA-256 over the
// normalized spec with lifecycle-only fields (CancelOnDisconnect) zeroed,
// so any two submissions that would execute the identical deterministic run
// dedupe onto one cache entry. The key is stable across processes and
// appears in job statuses as "sha256:<hex>".
func (sp JobSpec) Key() (string, error) {
	norm, err := sp.normalize()
	if err != nil {
		return "", err
	}
	norm.CancelOnDisconnect = false
	blob, err := json.Marshal(norm)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(blob)
	return "sha256:" + hex.EncodeToString(sum[:]), nil
}
