package plurality

import (
	"plurality/internal/adversary"
	"plurality/internal/core"
	"plurality/internal/graph"
	"plurality/internal/plan"
	"plurality/internal/sched"
)

// Model selects the communication model of a run.
type Model int

const (
	// Sequential is the paper's sequential model: each discrete step
	// activates one node chosen uniformly at random, and parallel time
	// advances by 1/n. This is the default.
	Sequential Model = iota + 1
	// Poisson is the continuous model: every node ticks according to an
	// independent unit-rate Poisson clock. The engine uses the O(1)
	// superposition formulation (one global rate-n clock plus a uniform
	// node choice).
	Poisson
	// HeapPoisson is the same continuous model generated by the O(log n)
	// per-node event-heap engine, retained as the validated reference for
	// Poisson. Prefer Poisson for large n.
	HeapPoisson
	// Synchronous selects the synchronous model for sampling dynamics:
	// discrete simultaneous rounds (Theorem 1.1's setting) instead of an
	// asynchronous scheduler. A Job over a registry protocol with
	// WithModel(Synchronous) runs on the round-based engine; the
	// asynchronous-only runners (core, the count-collapsed engines) reject
	// it.
	Synchronous
)

// Engine selects the execution strategy of the asynchronous sampling
// dynamics (Two-Choices, Voter, 3-Majority); see WithEngine. The core,
// synchronous and OneExtraBit runners run per node and accept only
// EngineAuto and EnginePerNode.
type Engine int

const (
	// EngineAuto (the default) takes the first engine that hosts the run
	// (the README's hosts matrix): the count-collapsed occupancy engine on
	// the complete graph, the degree-class lumped engine on annealed
	// topologies (AnnealedRegularGraph, AnnealedGraph), the per-node engine
	// otherwise. A Job a collapsed engine hosts runs on its counts in O(k)
	// memory, escalating to EngineLeap from 10¹⁰ nodes on. The exact
	// engines are distributionally equivalent (the collapses are exact),
	// but fixed-seed trajectories differ between them.
	EngineAuto Engine = iota
	// EnginePerNode forces the per-node simulation: O(n) state, every
	// activation walked individually.
	EnginePerNode
	// EngineOccupancy requires count-collapsed execution — O(k) state on
	// the clique with no-op activations leapt over in bulk, O(classes × k)
	// state on annealed topologies — and errors when the configuration is
	// not collapsible. A Job with this engine never materializes a
	// per-node population at all: Job.Run and Job.Trials execute directly
	// on the histogram in O(k) memory.
	EngineOccupancy
	// EngineLeap requires the hybrid tau-leap/mean-field engine: the
	// count-collapsed histogram advanced many transitions per step, with a
	// deterministic mean-field (ODE) handoff in the fluctuation-free bulk
	// and exact jump-chain fallback wherever any bucket is small. It is
	// approximate by design — tune the error budget with WithLeapEpsilon
	// and WithODEThreshold — and built for populations beyond the exact
	// engine's reach (n = 10¹⁰–10¹²⁺), directly on the histogram in O(k)
	// memory. EngineAuto escalates the Jobs it hosts to it from 10¹⁰ nodes
	// on.
	EngineLeap
)

// Default budgets applied when no override is given.
const (
	// DefaultMaxTime bounds asynchronous runs in parallel time.
	DefaultMaxTime = 1e5
	// DefaultMaxRounds bounds synchronous runs.
	DefaultMaxRounds = 1_000_000
	// DefaultMaxPhases bounds OneExtraBit runs.
	DefaultMaxPhases = 100_000
)

// Option configures a protocol run.
type Option interface {
	apply(*options)
}

type optionFunc func(*options)

func (f optionFunc) apply(o *options) { f(o) }

type options struct {
	set plan.Set // the applied options, which Job.Validate hands the planner

	seed          uint64
	model         Model
	maxTime       float64
	maxRounds     int
	maxPhases     int
	delayRate     float64
	latency       sched.LatencyModel
	churnRate     float64
	graph         Graph
	probeInterval float64
	onProbe       func(CoreProbe)
	onPhase       func(PhaseInfo)

	observeInterval float64
	onSnapshot      func(Snapshot)

	engine Engine

	delta, phases, gadgetSamples, endgameTicks int
	propagationRounds                          int
	trialWorkers                               int

	disableGadget, endgameOnly, runToHalt bool
	crashFraction                         float64
	desyncFraction                        float64
	desyncSpread                          int

	leapEps  float64
	odeTheta float64

	adversary adversary.Spec

	transport Transport
}

func (o *options) mark(c plan.Cap) { o.set |= 1 << c }

func newOptions(opts []Option) *options {
	o := &options{
		seed:      1,
		model:     Sequential,
		maxTime:   DefaultMaxTime,
		maxRounds: DefaultMaxRounds,
		maxPhases: DefaultMaxPhases,
	}
	for _, opt := range opts {
		opt.apply(o)
	}
	return o
}

// WithSeed fixes the random seed; runs with equal seeds are identical.
// The default seed is 1.
func WithSeed(seed uint64) Option {
	return optionFunc(func(o *options) { o.mark(plan.Seed); o.seed = seed })
}

// WithModel selects the communication model (default Sequential). The
// asynchronous models apply to the core protocol and the sampling dynamics;
// Synchronous selects the round-based dynamics engine. OneExtraBit, which is
// synchronous by construction, rejects it.
func WithModel(m Model) Option {
	return optionFunc(func(o *options) { o.mark(plan.Model); o.model = m })
}

// WithMaxTime bounds asynchronous runs in parallel time (default
// DefaultMaxTime).
func WithMaxTime(t float64) Option {
	return optionFunc(func(o *options) { o.mark(plan.MaxTime); o.maxTime = t })
}

// WithMaxRounds bounds synchronous runs (default DefaultMaxRounds).
func WithMaxRounds(r int) Option {
	return optionFunc(func(o *options) { o.mark(plan.MaxRounds); o.maxRounds = r })
}

// WithMaxPhases bounds OneExtraBit runs in phases (default
// DefaultMaxPhases).
func WithMaxPhases(p int) Option {
	return optionFunc(func(o *options) { o.mark(plan.MaxPhases); o.maxPhases = p })
}

// WithResponseDelay enables the §4 extension: every request/response
// exchange incurs an Exp(rate) delay during which the node blocks (mean
// delay 1/rate). Applies to asynchronous runners.
func WithResponseDelay(rate float64) Option {
	return optionFunc(func(o *options) { o.mark(plan.ResponseDelay); o.delayRate = rate })
}

// WithEdgeLatency enables the asynchronous edge-latency extension (after
// Bankhamer et al.): every edge a communicating step uses incurs an
// independent latency draw from m, and the node blocks until the slowest
// contacted edge has responded. Composes additively with WithResponseDelay.
// Applies to asynchronous runners; nil m disables the extension.
func WithEdgeLatency(m EdgeLatency) Option {
	return optionFunc(func(o *options) { o.mark(plan.EdgeLatency); o.latency = m })
}

// WithChurn injects node churn into asynchronous runs: each activation is,
// with probability rate in [0, 1), a churn event that replaces the node by
// a fresh joiner holding a uniformly random opinion (and, for the core
// protocol, a reset schedule the Sync Gadget must repair). Nodes activate
// at rate ~1, so rate is also the per-node churn rate per unit parallel
// time; exact consensus stays reachable only while rate·n stays well below
// 1.
func WithChurn(rate float64) Option {
	return optionFunc(func(o *options) { o.mark(plan.Churn); o.churnRate = rate })
}

// WithEngine selects the execution engine of asynchronous sampling-dynamics
// runs (default EngineAuto, which count-collapses whenever a collapsed
// engine hosts the run). Use EnginePerNode to force the O(n) simulation,
// and EngineOccupancy to fail loudly instead of falling back.
func WithEngine(e Engine) Option {
	return optionFunc(func(o *options) { o.mark(plan.EngineOpt); o.engine = e })
}

// WithGraph overrides the communication topology (default: the complete
// graph on pop.N() nodes, the paper's setting).
func WithGraph(g Graph) Option {
	return optionFunc(func(o *options) { o.mark(plan.GraphOpt); o.graph = g })
}

// WithProbe registers a periodic synchronization-quality observer on core
// runs, invoked every interval units of parallel time. It is independent of
// WithObserver — both may be active with different periods.
func WithProbe(interval float64, fn func(CoreProbe)) Option {
	return optionFunc(func(o *options) {
		o.mark(plan.Probe)
		o.probeInterval = interval
		o.onProbe = fn
	})
}

// WithPhaseObserver registers a per-phase observer on OneExtraBit runs.
func WithPhaseObserver(fn func(PhaseInfo)) Option {
	return optionFunc(func(o *options) { o.mark(plan.PhaseObserver); o.onPhase = fn })
}

// WithDelta overrides the core protocol's block length ∆.
func WithDelta(delta int) Option {
	return optionFunc(func(o *options) { o.mark(plan.Delta); o.delta = delta })
}

// WithPhases overrides the core protocol's part-1 phase count.
func WithPhases(phases int) Option {
	return optionFunc(func(o *options) { o.mark(plan.Phases); o.phases = phases })
}

// WithGadgetSamples overrides the Sync Gadget sampling length.
func WithGadgetSamples(samples int) Option {
	return optionFunc(func(o *options) { o.mark(plan.GadgetSamples); o.gadgetSamples = samples })
}

// WithEndgameTicks overrides the per-node part-2 budget.
func WithEndgameTicks(ticks int) Option {
	return optionFunc(func(o *options) { o.mark(plan.EndgameTicks); o.endgameTicks = ticks })
}

// WithPropagationRounds overrides OneExtraBit's Bit-Propagation sub-phase
// length.
func WithPropagationRounds(rounds int) Option {
	return optionFunc(func(o *options) { o.mark(plan.PropagationRounds); o.propagationRounds = rounds })
}

// WithoutSyncGadget disables the Sync Gadget — the ablation of experiment
// E7. The protocol then relies on raw Poisson-clock concentration only.
func WithoutSyncGadget() Option {
	return optionFunc(func(o *options) { o.mark(plan.NoSyncGadget); o.disableGadget = true })
}

// WithEndgameOnly starts every node directly in part 2 (used to study the
// §3.2 endgame in isolation from a c1 ≥ (1−ε)n start).
func WithEndgameOnly() Option {
	return optionFunc(func(o *options) { o.mark(plan.EndgameOnly); o.endgameOnly = true })
}

// WithRunToHalt keeps a core run going after consensus until every live
// node halts, making Result.FirstHaltTime and EndgameSafe meaningful.
func WithRunToHalt() Option {
	return optionFunc(func(o *options) { o.mark(plan.RunToHalt); o.runToHalt = true })
}

// WithTrialWorkers bounds the number of worker goroutines multi-trial runs
// (Job.Trials) shard trials across (default 0 = GOMAXPROCS).
// Results are deterministic regardless of the worker count.
func WithTrialWorkers(workers int) Option {
	return optionFunc(func(o *options) { o.mark(plan.TrialWorkers); o.trialWorkers = workers })
}

// WithCrashes marks a fraction of nodes as crashed: they never act but
// remain visible to sampling; consensus is evaluated over live nodes.
func WithCrashes(fraction float64) Option {
	return optionFunc(func(o *options) { o.mark(plan.Crashes); o.crashFraction = fraction })
}

// WithLeapEpsilon sets the hybrid leap engine's tau-leap error budget: the
// expected relative change of any histogram bucket in one leap step, in
// (0, 0.5] (default 0.01). Smaller is more accurate and slower. Applies
// only with WithEngine(EngineLeap).
func WithLeapEpsilon(eps float64) Option {
	return optionFunc(func(o *options) { o.mark(plan.LeapEps); o.leapEps = eps })
}

// WithODEThreshold sets the hybrid leap engine's mean-field handoff
// threshold θ: the deterministic ODE regime engages while every nonzero
// bucket holds at least 1/θ² nodes, i.e. while relative fluctuations stay
// below θ (default 1e-4, engaging at 10⁸ nodes per bucket). Pass 0 to
// disable the ODE regime entirely, keeping the run stochastic at every
// scale. Applies only with WithEngine(EngineLeap).
func WithODEThreshold(theta float64) Option {
	return optionFunc(func(o *options) {
		o.mark(plan.ODEThreshold)
		if theta == 0 {
			theta = -1 // the engine's "disabled" encoding; 0 means default
		}
		o.odeTheta = theta
	})
}

// WithAdversary arms a bounded-budget adversary against the run — see
// Adversaries for the registry and ParseAdversary for the textual form.
// Scheduling adversaries (minority-bias, delay-set, late) redirect or
// suppress activations, corruption adversaries flip up to Budget nodes per
// tick-window (per round when synchronous) from the plurality toward the
// minority, and Byzantine adversaries answer samples with lies at rate
// Budget/n. All adversary randomness comes from a dedicated RNG stream
// derived from WithSeed, so trials stay reproducible and an inactive spec
// (zero budget or name "none") is bit-identical to no adversary at all.
//
// Engine support is validated eagerly: NewJob rejects a family the
// planned path cannot host (the README's hosts matrix), naming both.
func WithAdversary(spec AdversarySpec) Option {
	return optionFunc(func(o *options) { o.mark(plan.Adversary); o.adversary = spec })
}

// newAdversary constructs the per-run adversary instance from the applied
// spec and the (possibly trial-derived) seed; nil when inactive.
func (o *options) newAdversary() (*adversary.Adversary, error) {
	return adversary.New(o.adversary, o.seed)
}

// WithDesync starts the given fraction of nodes with working/real times
// drawn uniformly from [0, spread) — adversarially poorly synchronized
// nodes for the Sync Gadget to repair.
func WithDesync(fraction float64, spread int) Option {
	return optionFunc(func(o *options) {
		o.mark(plan.Desync)
		o.desyncFraction = fraction
		o.desyncSpread = spread
	})
}

// coreConfig assembles the internal core configuration. The scheduler is
// filled in by the runner (it depends on pop.N()).
func (o *options) coreConfig(g graph.Graph) core.Config {
	cfg := core.Config{
		Graph:             g,
		MaxTime:           o.maxTime,
		Delta:             o.delta,
		Phases:            o.phases,
		GadgetSamples:     o.gadgetSamples,
		EndgameTicks:      o.endgameTicks,
		DisableSyncGadget: o.disableGadget,
		SkipPart1:         o.endgameOnly,
		RunToHalt:         o.runToHalt,
		CrashFraction:     o.crashFraction,
		ChurnRate:         o.churnRate,
		DesyncFraction:    o.desyncFraction,
		DesyncSpread:      o.desyncSpread,
		ProbeInterval:     o.probeInterval,
		OnProbe:           o.onProbe,
		Latency:           o.latency,
	}
	if o.delayRate > 0 {
		cfg.Delay = sched.ExpDelay{Rate: o.delayRate}
	}
	return cfg
}
