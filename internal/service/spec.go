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
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"plurality"
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
	// Model is the communication model: "sequential" (default), "poisson",
	// "heap-poisson" or "synchronous".
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

// specModels maps the wire model names onto the library enum.
var specModels = map[string]plurality.Model{
	"sequential":   plurality.Sequential,
	"poisson":      plurality.Poisson,
	"heap-poisson": plurality.HeapPoisson,
	"synchronous":  plurality.Synchronous,
}

// specEngines maps the wire engine names onto the library enum.
var specEngines = map[string]plurality.Engine{
	"auto":      plurality.EngineAuto,
	"per-node":  plurality.EnginePerNode,
	"occupancy": plurality.EngineOccupancy,
	"leap":      plurality.EngineLeap,
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
	if sp.Model == "" {
		sp.Model = "sequential"
	}
	if _, ok := specModels[sp.Model]; !ok {
		return sp, fmt.Errorf("unknown model %q (sequential, poisson, heap-poisson, synchronous)", sp.Model)
	}
	if sp.Engine == "" {
		sp.Engine = "auto"
	}
	if _, ok := specEngines[sp.Engine]; !ok {
		return sp, fmt.Errorf("unknown engine %q (auto, per-node, occupancy, leap)", sp.Engine)
	}
	if sp.ObserveInterval < 0 {
		return sp, fmt.Errorf("observeInterval = %v, want >= 0", sp.ObserveInterval)
	}
	spec, err := sp.adversarySpec()
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

// options compiles the spec into library options, applying only the fields
// the spec sets so Job.Validate's ignored-option rejection stays exact. The
// observer is bound later by the executing task (it owns the snapshot
// fan-out).
func (sp JobSpec) options() []plurality.Option {
	opts := []plurality.Option{
		plurality.WithSeed(sp.Seed),
		plurality.WithModel(specModels[sp.Model]),
	}
	if sp.Engine != "auto" {
		opts = append(opts, plurality.WithEngine(specEngines[sp.Engine]))
	}
	if sp.MaxTime > 0 {
		opts = append(opts, plurality.WithMaxTime(sp.MaxTime))
	}
	if sp.MaxRounds > 0 {
		opts = append(opts, plurality.WithMaxRounds(sp.MaxRounds))
	}
	if sp.MaxPhases > 0 {
		opts = append(opts, plurality.WithMaxPhases(sp.MaxPhases))
	}
	if sp.Churn > 0 {
		opts = append(opts, plurality.WithChurn(sp.Churn))
	}
	if sp.ResponseDelay > 0 {
		opts = append(opts, plurality.WithResponseDelay(sp.ResponseDelay))
	}
	if sp.LeapEpsilon != 0 {
		opts = append(opts, plurality.WithLeapEpsilon(sp.LeapEpsilon))
	}
	if sp.ODEThreshold != 0 {
		theta := sp.ODEThreshold
		if theta < 0 {
			theta = 0 // the public "disable the ODE regime" encoding
		}
		opts = append(opts, plurality.WithODEThreshold(theta))
	}
	if spec, err := sp.adversarySpec(); err == nil && spec.Active() {
		// normalize already vetted the spec; an error here cannot happen on
		// a normalized JobSpec.
		opts = append(opts, plurality.WithAdversary(spec))
	}
	return opts
}

// adversarySpec assembles the spec's adversary fields into a library
// AdversarySpec, resolving the name against the registry.
func (sp JobSpec) adversarySpec() (plurality.AdversarySpec, error) {
	spec, err := plurality.ParseAdversary(sp.Adversary)
	if err != nil {
		return plurality.AdversarySpec{}, err
	}
	spec.Budget = sp.Budget
	if sp.AdversaryLag != 0 {
		if spec.Lag != 0 {
			return plurality.AdversarySpec{}, fmt.Errorf("adversary %q already carries a lag; drop the adversaryLag field", sp.Adversary)
		}
		spec.Lag = sp.AdversaryLag
	}
	if err := spec.Validate(); err != nil {
		return plurality.AdversarySpec{}, err
	}
	if sp.Budget > 0 && !spec.Active() {
		return plurality.AdversarySpec{}, fmt.Errorf("budget = %d set with no adversary to spend it", sp.Budget)
	}
	return spec, nil
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
	opts := norm.options()
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
