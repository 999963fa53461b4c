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
	"math"
	"strconv"
	"strings"
	"time"

	"plurality"
	"plurality/internal/graph"
	"plurality/internal/plan"
	"plurality/internal/rng"
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
	// Bias names the initial-distribution workload: "biased" (c1 =
	// (1+param)·c2, Theorem 1.3's regime), "gapsqrt", "tinygap", "zipf"
	// or "uniform". BiasParam is its parameter (ε, z or the Zipf
	// exponent; ignored for "uniform").
	Bias      string  `json:"bias"`
	BiasParam float64 `json:"biasParam,omitempty"`
	// Topology and TopologyParam name the communication graph in the
	// graph.Spec grammar: "complete", "cycle", "torus", "gnp" (p),
	// "random-regular" (d; a quenched sample per trial), "annealed" (d) or
	// "annealed-gnp" (p).
	Topology      string  `json:"topology"`
	TopologyParam float64 `json:"topologyParam,omitempty"`
	// Model selects the scheduler engine: "sequential", "poisson" or
	// "heap-poisson".
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

// Validate checks that the scenario names a runnable configuration: every
// field parses, and the engine planner (plan.Choose) finds an execution
// path that hosts the options the scenario's runners pass NewJob.
func (sc Scenario) Validate() error {
	var desc plurality.Protocol
	if sc.Protocol != "core" {
		// Any registered sampling dynamic is a valid protocol; resolving
		// the spec here validates parameterized families eagerly (the
		// Compile contract), before any simulation runs.
		d, err := plurality.LookupProtocol(sc.Protocol)
		if err != nil {
			return fmt.Errorf("exp: protocol %q: %w", sc.Protocol, err)
		}
		desc = d
	}
	if sc.N < 4 {
		return fmt.Errorf("exp: n = %d, want >= 4", sc.N)
	}
	if sc.K < 2 {
		return fmt.Errorf("exp: k = %d, want >= 2", sc.K)
	}
	// Materialize the histogram so a bad bias parameter fails here —
	// Compile promises eager per-cell validation, and the workload
	// constructors hold the per-profile parameter rules.
	counts, err := sc.counts()
	if err != nil {
		return fmt.Errorf("exp: bias %s:%v: %w", sc.Bias, sc.BiasParam, err)
	}
	if err := sc.topology().Validate(sc.N); err != nil {
		return fmt.Errorf("exp: %w", err)
	}
	switch sc.Runtime {
	case "", "sim", "node", "node-tcp":
	default:
		return fmt.Errorf("exp: unknown runtime %q (want sim, node or node-tcp)", sc.Runtime)
	}
	switch {
	case sc.Crash < 0 || sc.Crash >= 1:
		return fmt.Errorf("exp: crash = %v, want [0, 1)", sc.Crash)
	case sc.Churn < 0 || sc.Churn >= 1:
		return fmt.Errorf("exp: churn = %v, want [0, 1)", sc.Churn)
	case sc.DelayRate < 0:
		return fmt.Errorf("exp: delayRate = %v, want >= 0", sc.DelayRate)
	case sc.MaxTime < 0:
		return fmt.Errorf("exp: maxTime = %v, want >= 0 (0 selects the default budget)", sc.MaxTime)
	}
	set, err := sc.settings(0)
	if err != nil {
		return err
	}
	engine, _, _ := sc.engineSpec()
	req := plan.Request{
		Runner:    plan.RunDynamic,
		Want:      engines[engine].c, // zero, EngineAuto's want, for "" and "auto"
		Topology:  sc.topology().Class(),
		Model:     models[sc.Model].c,
		FlowLaw:   desc.Leapable,
		Histogram: sc.histogram(),
		N:         int64(sc.N),
	}
	if sc.Protocol == "core" {
		req.Runner = plan.RunCore
	}
	for _, st := range set {
		req.Opts |= plan.Of(st.cap)
	}
	if spec, _ := sc.adversarySpec(); spec.Active() {
		d, _ := spec.Descriptor()
		req.Family, req.PerNode = d.Family, d.PerNode
	}
	if _, err := plan.Choose(req); err != nil {
		return fmt.Errorf("exp: %w", err)
	}
	// Harness bounds beyond what the paths host: one goroutine (plus timers
	// and message events) per node, so a mistyped axis cannot ask the
	// scheduler for millions of processes; and histogram cells promise O(k)
	// memory, which the O(n) heap-poisson scheduler would break.
	const maxNodes = 1 << 16
	if sc.nodeRuntime() && sc.N > maxNodes {
		return fmt.Errorf("exp: runtime %s runs one process per node; n = %d exceeds the %d-node bound", sc.Runtime, sc.N, maxNodes)
	}
	if sc.histogram() {
		if _, err := desc.ValidateCounts(counts, sc.Model == "heap-poisson"); err != nil {
			return fmt.Errorf("exp: %w", err)
		}
	}
	return nil
}

// nodeRuntime reports whether the scenario runs on the networked node
// runtime rather than a simulator engine.
func (sc Scenario) nodeRuntime() bool {
	return sc.Runtime == "node" || sc.Runtime == "node-tcp"
}

// histogram reports whether the scenario runs on colour counts alone: the
// occupancy and leap engine cells never materialize a population.
func (sc Scenario) histogram() bool {
	engine, _, _ := sc.engineSpec()
	return !sc.nodeRuntime() && (engine == "occupancy" || engine == "leap")
}

// topology returns the scenario's topology in the shared grammar.
func (sc Scenario) topology() graph.Spec {
	return graph.Spec{Name: sc.Topology, Param: sc.TopologyParam}
}

// setting is one option a scenario passes NewJob, with the capability the
// engine planner sees for it.
type setting struct {
	cap plan.Cap
	opt plurality.Option
}

// settings lists every option the scenario's job carries except the graph,
// which the runner adds once it has built it: the list Validate hands the
// planner and RunScenarioCtx hands NewJob.
func (sc Scenario) settings(seed uint64) ([]setting, error) {
	m, ok := models[sc.Model]
	if !ok {
		return nil, fmt.Errorf("exp: unknown model %q", sc.Model)
	}
	lat, err := parseLatency(sc.Latency)
	if err != nil {
		return nil, err
	}
	engine, leapEps, err := sc.engineSpec()
	if err != nil {
		return nil, err
	}
	adv, err := sc.adversarySpec()
	if err != nil {
		return nil, err
	}
	eng, ok := engines[engine]
	if !ok && engine != "" && engine != "auto" {
		return nil, fmt.Errorf("exp: unknown engine %q", sc.Engine)
	}
	set := []setting{{plan.Seed, plurality.WithSeed(seed)}, {plan.Model, plurality.WithModel(m.m)}}
	add := func(on bool, c plan.Cap, opt plurality.Option) {
		if on {
			set = append(set, setting{c, opt})
		}
	}
	add(ok, plan.EngineOpt, plurality.WithEngine(eng.e))
	add(leapEps > 0, plan.LeapEps, plurality.WithLeapEpsilon(leapEps))
	add(sc.MaxTime > 0, plan.MaxTime, plurality.WithMaxTime(sc.MaxTime))
	add(sc.Crash > 0, plan.Crashes, plurality.WithCrashes(sc.Crash))
	add(sc.Churn > 0, plan.Churn, plurality.WithChurn(sc.Churn))
	add(lat != nil, plan.EdgeLatency, plurality.WithEdgeLatency(lat))
	add(sc.DelayRate > 0, plan.ResponseDelay, plurality.WithResponseDelay(sc.DelayRate))
	// A named adversary rides along even at zero budget, where it is
	// bit-identical to none; paths that cannot host adversaries refuse it.
	add(adv.Name != "" && adv.Name != "none", plan.Adversary, plurality.WithAdversary(adv))
	add(sc.Runtime == "node", plan.Transport, plurality.WithTransport(plurality.NewChanTransport()))
	add(sc.Runtime == "node-tcp", plan.Transport, plurality.WithTransport(plurality.NewTCPTransport(nodeTCPUnit)))
	return set, nil
}

// adversarySpec resolves the Adversary/Budget pair into a budgeted spec
// ready for WithAdversary. The inactive spec (no name, or zero budget) is
// returned for adversary-free scenarios.
func (sc Scenario) adversarySpec() (plurality.AdversarySpec, error) {
	spec, err := plurality.ParseAdversary(sc.Adversary)
	if err != nil {
		return plurality.AdversarySpec{}, fmt.Errorf("exp: adversary %q: %w", sc.Adversary, err)
	}
	budget, err := parseBudget(sc.Budget, sc.N)
	if err != nil {
		return plurality.AdversarySpec{}, err
	}
	if budget > 0 && (spec.Name == "" || spec.Name == "none") {
		return plurality.AdversarySpec{}, fmt.Errorf("exp: budget %q set with no adversary to spend it", sc.Budget)
	}
	spec.Budget = budget
	if err := spec.Validate(); err != nil {
		return plurality.AdversarySpec{}, fmt.Errorf("exp: adversary %q: %w", sc.Adversary, err)
	}
	return spec, nil
}

// parseBudget decodes a Scenario.Budget string into the concrete budget f.
// Besides plain integers it accepts "n^<p>" and "<c>sqrt(n)" (coefficient
// optional), both rounded to the nearest integer after resolving against n;
// "" and "0" mean no budget.
func parseBudget(s string, n int) (int64, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "0" {
		return 0, nil
	}
	bad := func(why string) error {
		return fmt.Errorf("exp: budget %q: %s", s, why)
	}
	symbolic := func(v float64) (int64, error) {
		if n <= 0 {
			return 0, bad("symbolic form needs n set first")
		}
		if math.IsNaN(v) || v < 0 {
			return 0, bad("resolves to a negative or undefined budget")
		}
		return int64(math.Round(v)), nil
	}
	if p, ok := strings.CutPrefix(s, "n^"); ok {
		pow, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return 0, bad("bad exponent")
		}
		return symbolic(math.Pow(float64(n), pow))
	}
	if coef, ok := strings.CutSuffix(s, "sqrt(n)"); ok {
		coef = strings.TrimSuffix(strings.TrimSpace(coef), "*")
		c := 1.0
		if coef != "" {
			v, err := strconv.ParseFloat(coef, 64)
			if err != nil {
				return 0, bad("bad coefficient")
			}
			c = v
		}
		return symbolic(c * math.Sqrt(float64(n)))
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil || v < 0 {
		return 0, bad("want a non-negative integer, \"n^<p>\" or \"<c>sqrt(n)\"")
	}
	return v, nil
}

// engineSpec splits Scenario.Engine into the engine name and — for the
// "leap:<eps>" spelling — the explicit tau-leap error budget (0 means the
// engine default).
func (sc Scenario) engineSpec() (engine string, leapEps float64, err error) {
	if eps, ok := strings.CutPrefix(sc.Engine, "leap:"); ok {
		v, perr := strconv.ParseFloat(eps, 64)
		if perr != nil || math.IsNaN(v) || v <= 0 || v > 0.5 {
			return "", 0, fmt.Errorf("exp: leap engine budget %q, want a number in (0, 0.5]", eps)
		}
		return "leap", v, nil
	}
	return sc.Engine, 0, nil
}

// parseLatency decodes a Scenario.Latency string into an edge-latency
// model; "" and "none" mean nil (instant edges).
func parseLatency(s string) (plurality.EdgeLatency, error) {
	if s == "" || s == "none" {
		return nil, nil
	}
	parts := strings.Split(s, ":")
	switch parts[0] {
	case "exp":
		if len(parts) != 2 {
			return nil, fmt.Errorf("exp: latency %q, want exp:<mean>", s)
		}
		mean, err := strconv.ParseFloat(parts[1], 64)
		if err != nil || mean <= 0 {
			return nil, fmt.Errorf("exp: latency %q has bad mean", s)
		}
		return plurality.ExpEdgeLatency(mean), nil
	case "uniform":
		if len(parts) != 3 {
			return nil, fmt.Errorf("exp: latency %q, want uniform:<lo>:<hi>", s)
		}
		lo, err1 := strconv.ParseFloat(parts[1], 64)
		hi, err2 := strconv.ParseFloat(parts[2], 64)
		if err1 != nil || err2 != nil || lo < 0 || hi <= lo {
			return nil, fmt.Errorf("exp: latency %q has bad bounds", s)
		}
		return plurality.UniformEdgeLatency(lo, hi), nil
	default:
		return nil, fmt.Errorf("exp: unknown latency model %q", s)
	}
}

// counts materializes the scenario's initial color histogram.
func (sc Scenario) counts() ([]int64, error) {
	switch sc.Bias {
	case "biased":
		return plurality.Biased(sc.N, sc.K, sc.BiasParam)
	case "gapsqrt":
		return plurality.GapSqrt(sc.N, sc.K, sc.BiasParam)
	case "tinygap":
		return plurality.TinyGap(sc.N, sc.K, sc.BiasParam)
	case "zipf":
		return plurality.Zipf(sc.N, sc.K, sc.BiasParam)
	case "uniform":
		return plurality.Uniform(sc.N, sc.K)
	default:
		return nil, fmt.Errorf("exp: unknown bias profile %q", sc.Bias)
	}
}

// Derived-stream indices for the per-trial seed. The library runners
// consume streams 0 and 1 of each seed, so the harness claims high indices
// for its own draws.
const (
	shuffleStream = 1 << 10
	graphStream   = 1<<10 + 1
)

// models and engines map the scenario's scheduler and engine names to the
// public option values and the planner's capabilities.
var (
	models = map[string]struct {
		m plurality.Model
		c plan.Cap
	}{
		"sequential":   {plurality.Sequential, plan.Sequential},
		"poisson":      {plurality.Poisson, plan.Poisson},
		"heap-poisson": {plurality.HeapPoisson, plan.HeapPoisson},
	}
	engines = map[string]struct {
		e plurality.Engine
		c plan.Cap
	}{
		"per-node":  {plurality.EnginePerNode, plan.WantPerNode},
		"occupancy": {plurality.EngineOccupancy, plan.WantOccupancy},
		"leap":      {plurality.EngineLeap, plan.WantLeap},
	}
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
	if err := sc.Validate(); err != nil {
		return Trial{}, err
	}
	counts, err := sc.counts()
	if err != nil {
		return Trial{}, err
	}
	set, err := sc.settings(seed)
	if err != nil {
		return Trial{}, err
	}
	opts := make([]plurality.Option, len(set), len(set)+1)
	for i, st := range set {
		opts[i] = st.opt
	}
	// The workloads designate the most frequent color (lowest index on
	// ties) as the plurality, same rule as Population.Plurality.
	plurColor := plurality.Color(0)
	for c := 1; c < len(counts); c++ {
		if counts[c] > counts[plurColor] {
			plurColor = plurality.Color(c)
		}
	}
	var pop *plurality.Population
	if !sc.nodeRuntime() && !sc.histogram() {
		if pop, err = plurality.NewPopulation(counts); err != nil {
			return Trial{}, err
		}
		pop.Shuffle(rng.At(seed, shuffleStream))
	}
	if topo := sc.topology(); !sc.nodeRuntime() && (pop != nil || topo.Class() != graph.SymClique) {
		// Randomized topologies derive their seed from the trial seed, so
		// distinct trials see independent graph samples.
		g, err := topo.Build(sc.N, rng.At(seed, graphStream).Uint64())
		if err != nil {
			return Trial{}, err
		}
		opts = append(opts, plurality.WithGraph(g))
	}
	job, err := plurality.NewJob(sc.Protocol, counts, opts...)
	if err != nil {
		return Trial{}, err
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
	if sc.Protocol == "core" || sc.nodeRuntime() {
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
