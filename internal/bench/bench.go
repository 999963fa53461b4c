// Package bench is the experiment harness that regenerates every
// quantitative claim of the paper as an empirical table. Each experiment
// (E1–E12, and the ablations AB1–AB3) states its paper claim in its
// registry entry, which `experiments -list` prints; docs/ARCHITECTURE.md
// places the harness in the stack, and EXPERIMENTS.md covers the sweep
// engine that generalizes these tables.
//
// The experiments are clients of the public Job API: workloads come from
// plurality.Biased and its siblings, and each grid point's trials from one
// Job.Trials call seeded TrialSeed(Config.Seed, point). A run that ends
// without consensus is counted in its table rather than aborting it. Only E8
// (the sequential scheduler's cover time) and E10a (the Pólya urn) reach
// below the API, to internal/sched and internal/urn, because they study the
// model rather than a protocol run.
//
// Each experiment prints one or more tables (via trace.Table) followed by
// "shape:" lines summarizing the fitted growth behaviour that the paper's
// theory predicts. Experiments are deterministic given Config.Seed.
package bench

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"plurality"
	"plurality/internal/stats"
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

// points runs an experiment's grid points as plurality Jobs, in order. The
// i-th point's trials come from one Job.Trials call seeded
// TrialSeed(Config.Seed, i), so every point draws streams of its own and a
// table depends on the seed alone, not on the worker count.
type points struct {
	cfg  Config
	next int
}

// trials runs the next grid point: trials runs of spec over counts. A run
// that ends without consensus is a report for the table to count, not an
// error.
func (p *points) trials(spec string, counts []int64, trials int, opts ...plurality.Option) ([]plurality.Report, error) {
	seed := plurality.TrialSeed(p.cfg.Seed, p.next)
	p.next++
	job, err := plurality.NewJob(spec, counts, append([]plurality.Option{plurality.WithSeed(seed)}, opts...)...)
	if err != nil {
		return nil, err
	}
	reps, err := job.Trials(context.TODO(), trials)
	if errors.Is(err, plurality.ErrNoConsensus) || errors.Is(err, plurality.ErrTimeLimit) || errors.Is(err, plurality.ErrPhaseLimit) {
		err = nil
	}
	return reps, err
}

// median returns the median of f over the reports keep accepts (NaN when
// it accepts none). Consensus-time medians keep only converged runs.
func median(reps []plurality.Report, keep func(plurality.Report) bool, f func(plurality.Report) float64) float64 {
	var xs []float64
	for _, r := range reps {
		if keep(r) {
			xs = append(xs, f(r))
		}
	}
	return stats.Median(xs)
}

// count returns how many of the reports ok accepts.
func count(reps []plurality.Report, ok func(plurality.Report) bool) int {
	n := 0
	for _, r := range reps {
		if ok(r) {
			n++
		}
	}
	return n
}

// share formats count(reps, ok) out of all reports, as "3/5".
func share(reps []plurality.Report, ok func(plurality.Report) bool) string {
	return fmt.Sprintf("%d/%d", count(reps, ok), len(reps))
}

func all(plurality.Report) bool            { return true }
func converged(r plurality.Report) bool    { return r.Converged }
func won(r plurality.Report) bool          { return r.Converged && r.Winner == 0 }
func rounds(r plurality.Report) float64    { return float64(r.Rounds) }
func consensus(r plurality.Report) float64 { return r.ConsensusTime }

// coreResult returns a core report's full result.
func coreResult(r plurality.Report) plurality.CoreResult {
	res, _ := r.Core()
	return res
}

// worstSync keeps the worst synchronization core probes report: the largest
// poorly-synced fraction of the active nodes and the largest Spread90.
// Job.Trials calls a probe from several workers at once, so it aggregates
// under a lock.
type worstSync struct {
	mu     sync.Mutex
	poor   float64
	spread int64
}

func (w *worstSync) probe(p plurality.CoreProbe) {
	if p.Active == 0 {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.poor = max(w.poor, float64(p.PoorlySynced)/float64(p.Active))
	w.spread = max(w.spread, p.Spread90)
}

// pick returns the quick or full variant of a parameter grid.
func pick[T any](cfg Config, quick, full T) T {
	if cfg.Quick {
		return quick
	}
	return full
}
