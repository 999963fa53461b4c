// Package exp is the declarative experiment engine: a Scenario describes
// one fully specified simulation (protocol, population size and bias
// profile, topology, scheduler model, failure/latency/churn injection), a
// Sweep grids Scenarios over any set of axes, and Run executes the
// resulting cells × trials on the shared parallel-trial pool, aggregating
// per-cell statistics (mean/median/quantiles plus bootstrap confidence
// intervals) into a schema-stable JSON Report.
//
// The package exists so the question "how does consensus time react to
// <axis>?" is a declaration, not a hand-written loop: named sweeps (see
// named.go) cover the paper's Θ(log n) scaling claim, the Bankhamer et al.
// edge-latency extension, node churn, and restricted topologies, each with
// statistical gates that turn the expected shape into an executable
// regression test. Compare diffs two Reports within tolerance bands, which
// is how CI keeps the committed baseline honest.
//
// Everything is deterministic given the sweep seed: scenario RNG streams,
// trial sharding, topology construction and bootstrap resampling all derive
// from it, so a Report is a pure function of (Sweep, seed) and baseline
// diffs are meaningful across machines.
package exp

import (
	"context"
	"errors"
	"fmt"
	"time"

	"plurality"
	"plurality/internal/graph"
	"plurality/internal/rng"
	"plurality/internal/runspec"
)

// Scenario is one fully specified simulation configuration. The zero value
// is not runnable; Validate reports what is missing. String-typed fields
// keep the struct declarative (axes patch them textually) and make the JSON
// artifact self-describing.
type Scenario struct {
	// Protocol selects the runner: "core" (the paper's Theorem 1.3
	// protocol) or any registered sampling dynamic resolved through the
	// protocol registry — "two-choices", "voter", "3-majority", "usd",
	// "j-majority:<j>" and their aliases (plurality.Protocols lists them).
	Protocol string `json:"protocol"`
	// N is the number of nodes; K the number of colors.
	N int `json:"n"`
	K int `json:"k"`
	// Bias names the initial-distribution workload, a row of
	// runspec.Workloads: "biased" (c1 = (1+param)·c2, Theorem 1.3's
	// regime), "gapsqrt", "gapsqrtpolylog", "tinygap", "uniform" or
	// "zipf". BiasParam is its parameter (ε, z or the Zipf exponent;
	// ignored for "uniform").
	Bias      string  `json:"bias"`
	BiasParam float64 `json:"biasParam,omitempty"`
	// Topology and TopologyParam name the communication graph in the
	// graph.Spec grammar: "complete", "cycle", "torus", "gnp" (p),
	// "random-regular" (d; a quenched sample per trial), "annealed" (d) or
	// "annealed-gnp" (p).
	Topology      string  `json:"topology"`
	TopologyParam float64 `json:"topologyParam,omitempty"`
	// Model selects the scheduler, a row of runspec.Models: "sequential"
	// or "poisson". "synchronous" is rejected with ErrSynchronousCell.
	Model string `json:"model"`
	// Crash is the crashed-node fraction (core protocol on the complete
	// graph only; see core.Config.CrashFraction).
	Crash float64 `json:"crash,omitempty"`
	// Churn is the per-activation churn probability (see WithChurn).
	Churn float64 `json:"churn,omitempty"`
	// Latency encodes the edge-latency model: "" or "none" (instant
	// edges), "exp:<mean>" or "uniform:<lo>:<hi>".
	Latency string `json:"latency,omitempty"`
	// DelayRate, when positive, enables the §4 per-step Exp(rate)
	// response delay.
	DelayRate float64 `json:"delayRate,omitempty"`
	// MaxTime bounds the run in parallel time; 0 selects the library
	// default.
	MaxTime float64 `json:"maxTime,omitempty"`
	// Engine selects the dynamics execution engine: "" or "auto",
	// "per-node", "occupancy" (count-collapsed: occupancy on the clique,
	// lumped on annealed topologies) or "leap" / "leap:<eps>" (the hybrid
	// tau-leap/mean-field engine with an optional per-step error budget).
	// "occupancy" and "leap" cells run on the histogram alone, which is
	// what lets the scale sweep reach n = 10⁸ and leap cells go further.
	Engine string `json:"engine,omitempty"`
	// Adversary names a registered adversary ("minority-bias", "delay-set",
	// "late:<lag>", "corrupt", "byzantine"; plurality.Adversaries lists
	// them). "" and "none" run adversary-free; so does any name with a zero
	// Budget, bit-identically to the clean run.
	Adversary string `json:"adversary,omitempty"`
	// Budget is the adversary's power f as text: a plain integer, or the
	// symbolic forms "n^<p>" and "<c>sqrt(n)" which resolve against the
	// cell's N — threshold sweeps express f in the scaling unit the theory
	// speaks, exactly as the churn axis's "<coef>/n" form does for rates.
	Budget string `json:"budget,omitempty"`
	// Runtime selects the execution substrate: "" or "sim" (the simulator
	// engines, the default), "node" (the networked node runtime on the
	// deterministic in-process transport: one goroutine per node, local
	// Poisson clocks, pull messages), or "node-tcp" (the same runtime over
	// real loopback TCP sockets): registered dynamics on the clique under
	// the poisson model only.
	Runtime string `json:"runtime,omitempty"`
}

// Trial is the outcome of one scenario execution.
type Trial struct {
	// Done reports whether consensus was reached within the time budget.
	Done bool
	// Time is the parallel time at which consensus completed (valid when
	// Done).
	Time float64
	// Ticks is the number of delivered activations.
	Ticks int64
	// Win reports whether the initial plurality color won (valid when
	// Done).
	Win bool
	// Churns is the number of churn events injected.
	Churns int64
	// Corruptions is the number of opinions the adversary rewrote
	// (corruption flips plus Byzantine lies).
	Corruptions int64
	// Biased is the number of activations the adversary redirected or
	// suppressed.
	Biased int64
	// Messages is the number of pull requests exchanged when the trial ran
	// on the node runtime; 0 for simulator trials (the engines deliver
	// samples without materializing messages).
	Messages int64
}

// ErrSynchronousCell rejects a cell on a synchronous runner (the
// synchronous model, or the OneExtraBit protocol): they count rounds, and
// a sweep cell records consensus time.
var ErrSynchronousCell = errors.New("exp: synchronous runners count rounds; sweep cells record consensus time")

// Validate checks that the scenario names a runnable configuration: every
// field parses, and NewJob accepts the job its runners build (the graph of
// a randomized topology drawn for seed 0).
func (sc Scenario) Validate() error {
	_, _, _, err := sc.compile(0, false)
	return err
}

// compile builds the scenario's job for one trial seed, with its initial
// counts, and with population the shuffled population it runs on; nil for
// the cells that run on colour counts alone or on the node runtime.
func (sc Scenario) compile(seed uint64, population bool) (*plurality.Job, []int64, *plurality.Population, error) {
	switch {
	case sc.N < 4:
		return nil, nil, nil, fmt.Errorf("exp: n = %d, want >= 4", sc.N)
	case sc.K < 2:
		return nil, nil, nil, fmt.Errorf("exp: k = %d, want >= 2", sc.K)
	case sc.Crash < 0 || sc.Crash >= 1:
		return nil, nil, nil, fmt.Errorf("exp: crash = %v, want [0, 1)", sc.Crash)
	case sc.Churn < 0 || sc.Churn >= 1:
		return nil, nil, nil, fmt.Errorf("exp: churn = %v, want [0, 1)", sc.Churn)
	case sc.DelayRate < 0:
		return nil, nil, nil, fmt.Errorf("exp: delayRate = %v, want >= 0", sc.DelayRate)
	case sc.MaxTime < 0:
		return nil, nil, nil, fmt.Errorf("exp: maxTime = %v, want >= 0 (0 selects the default budget)", sc.MaxTime)
	}
	var transport plurality.Transport
	switch sc.Runtime {
	case "", "sim":
	case "node":
		transport = plurality.NewChanTransport()
	case "node-tcp":
		transport = plurality.NewTCPTransport(nodeTCPUnit)
	default:
		return nil, nil, nil, fmt.Errorf("exp: unknown runtime %q (want sim, node or node-tcp)", sc.Runtime)
	}
	// A harness bound beyond what the paths host: one goroutine (plus
	// timers and message events) per node, so a mistyped axis cannot ask
	// the scheduler for millions of processes.
	const maxNodes = 1 << 16
	if transport != nil && sc.N > maxNodes {
		return nil, nil, nil, fmt.Errorf("exp: runtime %s runs one process per node; n = %d exceeds the %d-node bound", sc.Runtime, sc.N, maxNodes)
	}
	run, err := sc.run(seed)
	if err != nil {
		return nil, nil, nil, err
	}
	// The workload constructors hold the per-profile parameter rules, so
	// materializing the histogram validates the bias.
	counts, err := run.Initial()
	if err != nil {
		return nil, nil, nil, fmt.Errorf("exp: bias %s:%v: %w", sc.Bias, sc.BiasParam, err)
	}
	opts, err := run.Options()
	if err != nil {
		return nil, nil, nil, fmt.Errorf("exp: %w", err)
	}
	if transport != nil {
		opts = append(opts, plurality.WithTransport(transport))
	}
	topo := graph.Spec{Name: sc.Topology, Param: sc.TopologyParam}
	if err := topo.Validate(sc.N); err != nil {
		return nil, nil, nil, fmt.Errorf("exp: %w", err)
	}
	// Cells of an engine that runs on colour counts alone, and node-runtime
	// cells, never materialize a population.
	engine, _ := runspec.LookupEngine(run.Engine) // Options vetted it; "" is auto
	perNode := transport == nil && !engine.Histogram
	var pop *plurality.Population
	if perNode && population {
		if pop, err = plurality.NewPopulation(counts); err != nil {
			return nil, nil, nil, err
		}
		pop.Shuffle(rng.At(seed, shuffleStream))
	}
	if perNode || topo.Class() != graph.SymClique {
		// Randomized topologies derive their seed from the trial seed, so
		// distinct trials see independent graph samples.
		g, err := topo.Build(sc.N, rng.At(seed, graphStream).Uint64())
		if err != nil {
			return nil, nil, nil, err
		}
		opts = append(opts, plurality.WithGraph(g))
	}
	job, err := plurality.NewJob(sc.Protocol, counts, opts...)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("exp: %w", err)
	}
	if k := job.Kind(); k == plurality.KindSyncDynamic || k == plurality.KindOneExtraBit {
		return nil, nil, nil, ErrSynchronousCell
	}
	return job, counts, pop, nil
}

// run is the scenario's view in the shared run vocabulary, under the
// given trial seed. The engine axis spells the leap budget inline
// ("leap:<eps>").
func (sc Scenario) run(seed uint64) (runspec.Run, error) {
	engine, eps, err := runspec.ParseEngine(sc.Engine)
	if err != nil {
		return runspec.Run{}, fmt.Errorf("exp: %w", err)
	}
	return runspec.Run{
		Protocol: sc.Protocol, Workload: sc.Bias, N: sc.N, K: sc.K, Param: sc.BiasParam,
		Seed: seed, Model: sc.Model, Engine: engine, LeapEps: eps, MaxTime: sc.MaxTime,
		Crash: sc.Crash, Churn: sc.Churn, ResponseDelay: sc.DelayRate, Latency: sc.Latency,
		Adversary: sc.Adversary, Budget: sc.Budget,
	}, nil
}

// Derived-stream indices for the per-trial seed. The library runners
// consume streams 0 and 1 of each seed, so the harness claims high indices
// for its own draws.
const (
	shuffleStream = 1 << 10
	graphStream   = 1<<10 + 1
)

// RunScenario executes one trial of the scenario under the given seed with
// a background context; see RunScenarioCtx.
func RunScenario(sc Scenario, seed uint64) (Trial, error) {
	return RunScenarioCtx(context.Background(), sc, seed)
}

// RunScenarioCtx executes one trial of the scenario under the given seed
// through the Job API, honoring ctx inside every engine loop (the CLI's
// -timeout flag lands here). A run that exhausts its time budget is not an
// error: it returns a Trial with Done == false so sweeps can record the
// failure rate. Cancellation and invalid configurations abort.
//
// Population cells run shuffled: the workloads assign colors in contiguous
// index blocks, which spatial topologies would read as clustered opinions.
// Histogram and node-runtime cells run from the counts alone.
func RunScenarioCtx(ctx context.Context, sc Scenario, seed uint64) (Trial, error) {
	job, counts, pop, err := sc.compile(seed, true)
	if err != nil {
		return Trial{}, err
	}
	// The workloads designate the most frequent color (lowest index on
	// ties) as the plurality, same rule as Population.Plurality.
	plurColor := plurality.Color(0)
	for c := 1; c < len(counts); c++ {
		if counts[c] > counts[plurColor] {
			plurColor = plurality.Color(c)
		}
	}
	var rep plurality.Report
	if pop != nil {
		rep, err = job.RunOn(ctx, pop)
	} else {
		rep, err = job.Run(ctx)
	}
	return trialFromReport(sc, rep, plurColor, err)
}

// nodeTCPUnit is the simulated-time unit for runtime=node-tcp cells: 2ms of
// wall clock per time unit keeps a smoke cell inside CI budgets while still
// exercising real sockets end to end.
const nodeTCPUnit = 2 * time.Millisecond

// trialFromReport maps a Job report onto the harness's Trial, tolerating
// the convergence-failure sentinels (a timed-out cell is data, not an
// error) while surfacing cancellation and configuration errors.
func trialFromReport(sc Scenario, rep plurality.Report, plurColor plurality.Color, err error) (Trial, error) {
	tr := Trial{
		Done:        rep.Converged,
		Time:        rep.Time,
		Ticks:       rep.Ticks,
		Win:         rep.Converged && rep.Winner == plurColor,
		Churns:      rep.Churns,
		Corruptions: rep.Corruptions,
		Biased:      rep.Biased,
		Messages:    rep.Messages,
	}
	if sc.Protocol == "core" || sc.Runtime == "node" || sc.Runtime == "node-tcp" {
		// The core protocol and the node runtime report the consensus
		// instant separately from the run's total time (the node runtime's
		// total includes the termination gadget's halting tail); the
		// harness has always recorded the former.
		tr.Time = rep.ConsensusTime
	}
	if err != nil && !errors.Is(err, plurality.ErrNoConsensus) && !errors.Is(err, plurality.ErrTimeLimit) {
		// Even a hard stop (cancellation) returns the partial trial next to
		// the error: the engines preserve their injection counters on every
		// exit path, and dropping them here would lose that work.
		return tr, err
	}
	return tr, nil
}
