package plurality

// This file holds the legacy one-shot entry points, kept as thin shims over
// the Job execution layer (see job.go): each RunX call builds the same
// option struct a Job would and dispatches to the shared exec helpers with
// a background context, so fixed-seed results are bit-identical across the
// two API generations. New code should prefer NewJob / Job.Run /
// Job.Trials, which add eager validation, context cancellation, uniform
// Reports and pooled multi-trial execution.

import (
	"context"

	"plurality/internal/core"
	"plurality/internal/protocols"
	"plurality/internal/protocols/dynamics"
	"plurality/internal/protocols/onebit"
	"plurality/internal/rng"
)

// RunCore executes the paper's asynchronous plurality-consensus protocol
// (Theorem 1.3) on pop, mutating it in place. With the default options it
// runs the sequential model on the complete graph until all (live) nodes
// agree, every node halts, or the time budget elapses.
func RunCore(pop *Population, opts ...Option) (CoreResult, error) {
	return execCore(context.Background(), core.NewRunner(), pop, newOptions(opts))
}

// RunDynamic executes the named sampling dynamic from the protocol
// registry (see Protocols) in the asynchronous model. The spec is the
// registry name, optionally with a parameter — "two-choices", "voter",
// "3-majority", "usd", "j-majority:5".
func RunDynamic(protocol string, pop *Population, opts ...Option) (AsyncResult, error) {
	_, rule, err := protocols.Lookup(protocol)
	if err != nil {
		return AsyncResult{}, err
	}
	return execAsync(context.Background(), new(dynamics.Runner), pop, rule, newOptions(opts))
}

// RunDynamicSync executes the named sampling dynamic in the synchronous
// model (discrete simultaneous rounds); see RunDynamic for the spec
// syntax.
func RunDynamicSync(protocol string, pop *Population, opts ...Option) (SyncResult, error) {
	_, rule, err := protocols.Lookup(protocol)
	if err != nil {
		return SyncResult{}, err
	}
	return execSync(context.Background(), new(dynamics.Runner), pop, rule, newOptions(opts))
}

// RunDynamicCounts executes the named sampling dynamic directly on a color
// histogram with the count-collapsed occupancy engine: counts[c] nodes
// initially hold color c, and the run needs O(k) memory regardless of the
// population size, which is what lets exact simulations reach n = 10⁸–10⁹.
// counts is mutated in place to the final histogram (USD's undecided
// leftovers, if any, are reported in AsyncResult.Undecided). The topology
// is the complete graph on the histogram total unless WithGraph names a
// Complete variant or an annealed topology; per-node extensions are errors.
func RunDynamicCounts(protocol string, counts []int64, opts ...Option) (AsyncResult, error) {
	d, rule, err := protocols.Lookup(protocol)
	if err != nil {
		return AsyncResult{}, err
	}
	return execCounts(context.Background(), new(dynamics.Runner), counts, d, rule, newOptions(opts))
}

// The per-protocol wrappers below predate the registry and remain as thin
// compatibility shims over the generic RunDynamic entry points.

// RunTwoChoicesSync executes the synchronous Two-Choices dynamic
// (Theorem 1.1) until consensus or the round budget.
func RunTwoChoicesSync(pop *Population, opts ...Option) (SyncResult, error) {
	return RunDynamicSync("two-choices", pop, opts...)
}

// RunTwoChoicesAsync executes Two-Choices in the asynchronous model.
func RunTwoChoicesAsync(pop *Population, opts ...Option) (AsyncResult, error) {
	return RunDynamic("two-choices", pop, opts...)
}

// RunVoterSync executes the Voter baseline in the synchronous model.
func RunVoterSync(pop *Population, opts ...Option) (SyncResult, error) {
	return RunDynamicSync("voter", pop, opts...)
}

// RunVoterAsync executes the Voter baseline in the asynchronous model.
func RunVoterAsync(pop *Population, opts ...Option) (AsyncResult, error) {
	return RunDynamic("voter", pop, opts...)
}

// RunThreeMajoritySync executes the 3-Majority baseline in the synchronous
// model.
func RunThreeMajoritySync(pop *Population, opts ...Option) (SyncResult, error) {
	return RunDynamicSync("3-majority", pop, opts...)
}

// RunThreeMajorityAsync executes the 3-Majority baseline in the
// asynchronous model.
func RunThreeMajorityAsync(pop *Population, opts ...Option) (AsyncResult, error) {
	return RunDynamic("3-majority", pop, opts...)
}

// RunOneExtraBit executes the synchronous OneExtraBit protocol
// (Theorem 1.2) until consensus or the phase budget. The budget is
// WithMaxPhases when given; otherwise the deprecated legacy derivation
// max(1, MaxRounds/10) applies — an order-of-magnitude heuristic kept only
// for compatibility. Prefer WithMaxPhases.
func RunOneExtraBit(pop *Population, opts ...Option) (OneExtraBitResult, error) {
	return execOneBit(context.Background(), new(onebit.Runner), pop, newOptions(opts))
}

// RunTwoChoicesCounts executes the asynchronous Two-Choices dynamic on a
// color histogram with the count-collapsed occupancy engine; see
// RunDynamicCounts.
func RunTwoChoicesCounts(counts []int64, opts ...Option) (AsyncResult, error) {
	return RunDynamicCounts("two-choices", counts, opts...)
}

// RunVoterCounts executes the Voter baseline on a color histogram with the
// count-collapsed occupancy engine; see RunDynamicCounts.
func RunVoterCounts(counts []int64, opts ...Option) (AsyncResult, error) {
	return RunDynamicCounts("voter", counts, opts...)
}

// RunThreeMajorityCounts executes the 3-Majority baseline on a color
// histogram with the count-collapsed occupancy engine; see
// RunDynamicCounts.
func RunThreeMajorityCounts(counts []int64, opts ...Option) (AsyncResult, error) {
	return RunDynamicCounts("3-majority", counts, opts...)
}

// RunCoreTrials executes trials independent core-protocol runs, each on a
// fresh population built from counts — the legacy spelling of
// NewJob("core", counts, opts...).Trials(ctx, trials), which generalizes
// the same deterministic seed derivation and sync.Pool state reuse to every
// registered protocol and engine. See Job.Trials for the semantics.
func RunCoreTrials(counts []int64, trials int, opts ...Option) ([]CoreResult, error) {
	j, err := newJob("core", counts, newOptions(opts))
	if err != nil {
		return nil, err
	}
	reps, err := j.Trials(context.Background(), trials)
	if reps == nil {
		return nil, err
	}
	results := make([]CoreResult, len(reps))
	for i, rep := range reps {
		results[i], _ = rep.Core()
	}
	return results, err
}

// TrialSeed derives the seed trial t of a multi-trial run uses from the
// base seed: trial 0 keeps the base seed (a 1-trial run matches Run
// exactly) and later trials get decorrelated streams via SplitMix-style
// mixing.
func TrialSeed(seed uint64, trial int) uint64 {
	if trial == 0 {
		return seed
	}
	return rng.At(seed, trial).Uint64()
}
