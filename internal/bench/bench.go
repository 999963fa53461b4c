// Package bench is the experiment harness that regenerates every
// quantitative claim of the paper as an empirical table. Each experiment
// (E1–E12, and the ablations AB1–AB3) states its paper claim in its
// registry entry, which `experiments -list` prints; docs/ARCHITECTURE.md
// places the harness in the stack, and EXPERIMENTS.md covers the sweep
// engine that generalizes these tables.
//
// Each experiment prints one or more tables (via trace.Table) followed by
// "shape:" lines summarizing the fitted growth behaviour that the paper's
// theory predicts. Experiments are deterministic given Config.Seed.
package bench

import (
	"io"

	"plurality/internal/core"
	"plurality/internal/graph"
	"plurality/internal/population"
	"plurality/internal/protocols/dynamics"
	"plurality/internal/rng"
	"plurality/internal/sched"
)

// Config controls an experiment run.
type Config struct {
	// Out receives the experiment's tables and summary lines. Required.
	Out io.Writer
	// Quick selects reduced parameter grids (used by the benchmark
	// entry points and smoke tests); the full grids regenerate
	// EXPERIMENTS.md.
	Quick bool
	// Seed derives every trial's generator.
	Seed uint64
}

// Experiment is one reproducible experiment.
type Experiment struct {
	// ID is the experiment identifier, e.g. "e1".
	ID string
	// Title is a one-line description.
	Title string
	// Claim is the paper claim being checked.
	Claim string
	// Run executes the experiment and writes its tables to cfg.Out.
	Run func(cfg Config) error
}

// All returns every experiment in ID order.
func All() []Experiment {
	return []Experiment{
		{
			ID:    "e1",
			Title: "Synchronous Two-Choices upper bound",
			Claim: "Thm 1.1: converges to C1 in O(n/c1 * log n) rounds with bias z*sqrt(n ln n)",
			Run:   runE1,
		},
		{
			ID:    "e2",
			Title: "Synchronous Two-Choices lower bound",
			Claim: "Thm 1.1: Omega(k) rounds when c1-c2 = z*sqrt(n ln n), c2 = ... = ck",
			Run:   runE2,
		},
		{
			ID:    "e3",
			Title: "Small-bias upsets",
			Claim: "Thm 1.1: with c1-c2 = O(sqrt n), a non-plurality color wins with constant probability",
			Run:   runE3,
		},
		{
			ID:    "e4",
			Title: "OneExtraBit run time",
			Claim: "Thm 1.2: O((log(c1/(c1-c2)) + loglog n)(log k + loglog n)) rounds; beats Two-Choices' Omega(k)",
			Run:   runE4,
		},
		{
			ID:    "e5",
			Title: "Quadratic bias amplification per phase",
			Claim: "S2: after each phase c1'/cj' >= (1-o(1)) (c1/cj)^2",
			Run:   runE5,
		},
		{
			ID:    "e6",
			Title: "Asynchronous protocol run time (main theorem)",
			Claim: "Thm 1.3: Theta(log n) time with c1 >= (1+eps) ci; beats async Two-Choices as k grows",
			Run:   runE6,
		},
		{
			ID:    "e7",
			Title: "Weak synchronicity and the Sync Gadget",
			Claim: "S3: all but o(n) nodes stay within Delta = Theta(log n/loglog n); ablation drifts",
			Run:   runE7,
		},
		{
			ID:    "e8",
			Title: "Clock concentration / Omega(log n) lower bound",
			Claim: "S1.1: in the sequential model some nodes stay unselected for Theta(log n) time",
			Run:   runE8,
		},
		{
			ID:    "e9",
			Title: "Endgame safety",
			Claim: "S3.2: from c1 >= (1-eps) n, consensus lands before the first node halts",
			Run:   runE9,
		},
		{
			ID:    "e10",
			Title: "Polya-urn preservation of Bit-Propagation",
			Claim: "S3.1: the color distribution among bit-set nodes is almost unchanged by Bit-Propagation",
			Run:   runE10,
		},
		{
			ID:    "e11",
			Title: "Sequential vs continuous model equivalence",
			Claim: "S1 (via [4]): both asynchronous models yield the same run time",
			Run:   runE11,
		},
		{
			ID:    "e12",
			Title: "Exponential response delays",
			Claim: "S4: Exp(theta) response delays preserve Theta(log n) up to a constant factor",
			Run:   runE12,
		},
	}
}

// ByID returns the experiment (paper experiment or ablation) with the
// given ID.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	for _, e := range Ablations() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// --- shared measurement helpers ------------------------------------------

// trialPop instantiates a fresh population from counts.
func trialPop(counts []int64) (*population.Population, error) {
	return population.FromCounts(counts)
}

// runSync executes a sampling dynamic in the synchronous model and returns
// the number of rounds to consensus and the winner.
func runSync(rule dynamics.Rule, counts []int64, seed uint64, maxRounds int) (dynamics.SyncResult, error) {
	pop, err := trialPop(counts)
	if err != nil {
		return dynamics.SyncResult{}, err
	}
	g, err := graph.NewComplete(pop.N())
	if err != nil {
		return dynamics.SyncResult{}, err
	}
	return dynamics.RunSync(pop, rule, dynamics.SyncConfig{
		Graph:     g,
		Rand:      rng.At(seed, 0),
		MaxRounds: maxRounds,
	})
}

// runAsync executes a sampling dynamic in the asynchronous sequential model.
func runAsync(rule dynamics.Rule, counts []int64, seed uint64, maxTime float64) (dynamics.AsyncResult, error) {
	pop, err := trialPop(counts)
	if err != nil {
		return dynamics.AsyncResult{}, err
	}
	g, err := graph.NewComplete(pop.N())
	if err != nil {
		return dynamics.AsyncResult{}, err
	}
	s, err := sched.NewSequential(pop.N(), rng.At(seed, 0))
	if err != nil {
		return dynamics.AsyncResult{}, err
	}
	return dynamics.RunAsync(pop, rule, dynamics.AsyncConfig{
		Graph:     g,
		Scheduler: s,
		Rand:      rng.At(seed, 1),
		MaxTime:   maxTime,
	})
}

// runCore executes the paper's asynchronous protocol. mutate, if non-nil,
// adjusts the configuration before the run (scheduler swaps, ablations,
// delays, endgame-only studies).
func runCore(counts []int64, seed uint64, maxTime float64, mutate func(*core.Config)) (core.Result, error) {
	pop, err := trialPop(counts)
	if err != nil {
		return core.Result{}, err
	}
	g, err := graph.NewComplete(pop.N())
	if err != nil {
		return core.Result{}, err
	}
	s, err := sched.NewSequential(pop.N(), rng.At(seed, 0))
	if err != nil {
		return core.Result{}, err
	}
	cfg := core.Config{
		Graph:     g,
		Scheduler: s,
		Rand:      rng.At(seed, 1),
		MaxTime:   maxTime,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	return core.Run(pop, cfg)
}

// pick returns the quick or full variant of a parameter grid.
func pick[T any](cfg Config, quick, full T) T {
	if cfg.Quick {
		return quick
	}
	return full
}
