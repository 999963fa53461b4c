package plurality

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"plurality/internal/core"
	"plurality/internal/graph"
	"plurality/internal/occupancy"
	"plurality/internal/par"
	"plurality/internal/plan"
	"plurality/internal/protocols"
	"plurality/internal/protocols/dynamics"
	"plurality/internal/protocols/onebit"
	"plurality/internal/rng"
	"plurality/internal/sched"
)

// Job is a validated, reusable binding of protocol spec × initial counts ×
// options — the v2 run API. Compile one with NewJob, then execute it any
// number of times:
//
//	job, err := plurality.NewJob("two-choices", counts,
//		plurality.WithSeed(7), plurality.WithModel(plurality.Poisson))
//	rep, err := job.Run(ctx)          // one run
//	reps, err := job.Trials(ctx, 100) // pooled parallel trials
//
// The spec is "core" (Theorem 1.3's asynchronous protocol), "onebit" (alias
// "one-extra-bit"; Theorem 1.2), or any registry protocol spec —
// "two-choices", "voter", "3-majority", "usd", "j-majority:5" (see
// Protocols). Registry protocols run asynchronously by default and
// synchronously under WithModel(Synchronous). An asynchronous one that a
// count-collapsed engine hosts — under the default EngineAuto on the
// complete graph and on annealed topologies, always under EngineOccupancy
// and EngineLeap — runs on its counts alone in O(k) memory, without ever
// materializing a per-node population; the engine planner decides this once,
// in NewJob.
//
// NewJob validates eagerly: options the selected runner would silently
// ignore are rejected (see Validate), as are malformed counts, unknown
// protocols and bad parameters. Execution is context-aware — cancellation
// and deadlines are honored inside every engine loop — and a Job is
// immutable after construction, so it is safe to share across goroutines
// (each Run builds fresh run state).
type Job struct {
	spec   string
	kind   Kind
	counts []int64
	total  int64
	o      *options
	desc   protocols.Descriptor // registry protocols only
	rule   dynamics.Rule        // registry protocols only
	// histogram marks a job that runs on its counts alone, with no
	// per-node population.
	histogram bool
}

// NewJob compiles and validates a job; see Job for the spec syntax. counts
// is copied, so the caller's slice stays untouched by later runs.
func NewJob(spec string, counts []int64, opts ...Option) (*Job, error) {
	j := &Job{spec: spec, counts: slices.Clone(counts), o: newOptions(opts)}
	for _, v := range j.counts {
		j.total += v
	}
	switch spec {
	case "core":
		j.kind = KindCore
	case "onebit", "one-extra-bit":
		j.kind = KindOneExtraBit
	default:
		d, rule, err := protocols.Lookup(spec)
		if err != nil {
			return nil, err
		}
		j.desc, j.rule = d, rule
		if j.o.model == Synchronous {
			j.kind = KindSyncDynamic
		} else {
			j.kind = KindDynamic
		}
	}
	j.histogram = j.onHistogram()
	if err := j.Validate(); err != nil {
		return nil, err
	}
	return j, nil
}

// onHistogram reports whether the job runs on its counts alone (O(k)
// memory, no per-node population): an asynchronous registry dynamic without
// a transport, under EngineOccupancy or EngineLeap (Validate reports what
// they cannot host), or under EngineAuto when the planner hosts the run on
// the histogram.
func (j *Job) onHistogram() bool {
	if j.kind != KindDynamic || j.o.transport != nil {
		return false
	}
	switch j.o.engine {
	case EngineOccupancy, EngineLeap:
		return true
	case EngineAuto:
		req, err := j.request() // an error here is Validate's to report
		req.Histogram = true
		_, cerr := plan.Choose(req)
		return err == nil && cerr == nil
	}
	return false
}

// Kind returns the runner family the job is bound to.
func (j *Job) Kind() Kind { return j.kind }

// Protocol returns the protocol spec the job was compiled from.
func (j *Job) Protocol() string { return j.spec }

// N returns the total number of nodes (the histogram total).
func (j *Job) N() int64 { return j.total }

// Validate checks the job end to end without running anything: some
// execution path must host it with every applied option, then the counts,
// protocol parameters and numeric ranges.
func (j *Job) Validate() error {
	if j.o.set.Has(plan.Transport) && j.o.transport == nil {
		return fmt.Errorf("plurality: job %s: WithTransport(nil); the node runtime needs a transport (NewChanTransport, NewLossyChanTransport, NewTCPTransport)", j.spec)
	}
	req, err := j.request()
	if err != nil {
		return err
	}
	if _, err := plan.Choose(req); err != nil {
		return fmt.Errorf("plurality: job %s: %w", j.spec, err)
	}

	// Counts: non-negative, a workable total that fits the schedulers'
	// node index — the registry's shared histogram guards.
	if _, err := j.desc.ValidateCounts(j.counts); err != nil {
		return err
	}
	if g := j.o.graph; g != nil && int64(g.N()) != j.total {
		return fmt.Errorf("plurality: job %s: graph has %d nodes, histogram %d", j.spec, g.N(), j.total)
	}

	switch j.kind {
	case KindCore:
		if _, err := core.Plan(j.o.coreConfig(nil), int(j.total)); err != nil {
			return err
		}
	case KindDynamic:
		if e := j.o.leapEps; j.o.set.Has(plan.LeapEps) && (math.IsNaN(e) || e <= 0 || e > 0.5) {
			return fmt.Errorf("plurality: job %s: WithLeapEpsilon(%v), want (0, 0.5]", j.spec, e)
		}
		if th := j.o.odeTheta; j.o.set.Has(plan.ODEThreshold) && (math.IsNaN(th) || th >= 1) {
			return fmt.Errorf("plurality: job %s: WithODEThreshold(%v), want < 1 (0 disables the ODE regime)", j.spec, th)
		}
	case KindSyncDynamic:
		if j.o.maxRounds <= 0 {
			return fmt.Errorf("plurality: job %s: MaxRounds = %d, want > 0", j.spec, j.o.maxRounds)
		}
	case KindOneExtraBit:
		if j.o.maxPhases <= 0 {
			return fmt.Errorf("plurality: job %s: MaxPhases = %d, want > 0", j.spec, j.o.maxPhases)
		}
	}
	// The negated comparisons reject NaN too.
	if r := j.o.delayRate; j.o.set.Has(plan.ResponseDelay) && !(r > 0 && r < math.Inf(1)) {
		return fmt.Errorf("plurality: job %s: WithResponseDelay(%v), want a finite rate > 0", j.spec, r)
	}
	if p := j.o.churnRate; j.o.set.Has(plan.Churn) && !(p >= 0 && p < 1) {
		return fmt.Errorf("plurality: job %s: WithChurn(%v), want [0, 1)", j.spec, p)
	}
	if f := j.o.crashFraction; j.o.set.Has(plan.Crashes) && !(f >= 0 && f < 1) {
		return fmt.Errorf("plurality: job %s: WithCrashes(%v), want [0, 1)", j.spec, f)
	}
	if j.kind != KindSyncDynamic && j.kind != KindOneExtraBit {
		if j.o.maxTime <= 0 {
			return fmt.Errorf("plurality: job %s: MaxTime = %v, want > 0", j.spec, j.o.maxTime)
		}
		if math.IsNaN(j.o.maxTime) {
			return fmt.Errorf("plurality: job %s: MaxTime is NaN", j.spec)
		}
	}
	return nil
}

// request describes the job to the engine planner: its runner, requested
// engine, topology class, model (when WithModel was applied), applied
// options, active adversary and whether it runs on its counts alone.
func (j *Job) request() (plan.Request, error) {
	r := plan.Request{
		Runner:    [...]plan.Cap{KindCore: plan.RunCore, KindDynamic: plan.RunDynamic, KindSyncDynamic: plan.RunSync, KindOneExtraBit: plan.RunOneBit}[j.kind],
		Topology:  graph.SymmetryOf(j.o.graph),
		Opts:      j.o.set,
		FlowLaw:   j.desc.Leapable,
		Histogram: j.histogram,
		N:         j.total,
	}
	// Engine and Model list their values in the planner's order.
	if j.o.engine > EngineAuto && j.o.engine <= EngineLeap {
		r.Want = plan.WantAuto + plan.Cap(j.o.engine)
	}
	if j.o.set.Has(plan.Model) && j.o.model >= Sequential && j.o.model <= Synchronous {
		r.Model = plan.Sequential + plan.Cap(j.o.model-Sequential)
	}
	if j.o.set.Has(plan.Adversary) {
		spec := j.o.adversary
		if err := spec.Validate(); err != nil {
			return r, fmt.Errorf("plurality: job %s: %w", j.spec, err)
		}
		if d, ok := spec.Descriptor(); ok && spec.Active() {
			r.Family, r.PerNode = d.Family, d.PerNode
		}
	}
	return r, nil
}

// Run executes one run of the job from its initial counts, honoring ctx:
// cancellation or deadline expiry is polled inside every engine loop (the
// core schedule, the per-node dynamics, the count-collapsed leap/tick
// modes, the synchronous round loop, OneExtraBit's phases) and surfaces as
// a context error wrapping the progress made so far. Convergence failures
// surface as sentinels: errors.Is(err, ErrNoConsensus | ErrTimeLimit |
// ErrPhaseLimit). The returned Report is meaningful in every error case.
//
// Run never mutates the job; concurrent Runs are safe and, for a fixed
// seed, bit-identical to each other.
func (j *Job) Run(ctx context.Context) (Report, error) {
	return j.run(ctx, j.o, nil)
}

// RunOn executes the job's protocol and options on a caller-supplied
// population, mutating it in place — the bridge for callers that prepare
// populations themselves (shuffled placements on spatial topologies, resumed
// states). The job's bound counts are ignored; the population defines the
// initial configuration. The engine is planned for the population: where a
// count-collapsed engine hosts the run, it collapses the population's
// histogram and writes the final one back. For a fixed seed, RunOn on a
// fresh population of the job's counts matches Run bit for bit, except that
// EngineAuto escalates only Run (whose counts need no population) to the
// leap engine.
func (j *Job) RunOn(ctx context.Context, pop *Population) (Report, error) {
	if pop == nil {
		return Report{}, fmt.Errorf("plurality: job %s: nil population", j.spec)
	}
	if j.o.transport != nil {
		return Report{}, fmt.Errorf("plurality: job %s: the node runtime builds its cluster from the job's counts; RunOn's caller-supplied population is a simulator entry point", j.spec)
	}
	return j.runOn(ctx, j.o, nil, pop)
}

// run executes one run from the job's counts under o (a possibly reseeded
// copy of the job's options), reusing pooled trial state when st is
// non-nil.
func (j *Job) run(ctx context.Context, o *options, st *trialState) (Report, error) {
	if o.transport != nil {
		// Node-runtime path: live goroutine-backed nodes over the
		// configured transport. No pooled state applies — each run builds
		// a fresh transport instance and fresh nodes.
		return execCluster(ctx, j, o, 0)
	}
	if j.histogram {
		var counts []int64
		var rn *dynamics.Runner
		if st != nil {
			copy(st.counts, j.counts)
			counts, rn = st.counts, st.dyn
		} else {
			counts, rn = slices.Clone(j.counts), new(dynamics.Runner)
		}
		res, err := execCounts(ctx, rn, counts, j.total, j.rule, o)
		return j.report(reportFromAsync(res)), err
	}
	var pop *Population
	if st != nil {
		if err := st.pop.Reset(st.base); err != nil {
			return Report{}, err
		}
		pop = st.pop
	} else {
		var err error
		if pop, err = NewPopulation(j.counts); err != nil {
			return Report{}, err
		}
	}
	return j.runOn(ctx, o, st, pop)
}

// runOn dispatches one run on pop to the kind's engine.
func (j *Job) runOn(ctx context.Context, o *options, st *trialState, pop *Population) (Report, error) {
	switch j.kind {
	case KindCore:
		rn := core.NewRunner()
		if st != nil {
			rn = st.core
		}
		res, err := execCore(ctx, rn, pop, o)
		return j.report(reportFromCore(res)), err
	case KindDynamic:
		rn := new(dynamics.Runner)
		if st != nil {
			rn = st.dyn
		}
		res, err := execAsync(ctx, rn, pop, j.rule, o)
		return j.report(reportFromAsync(res)), err
	case KindSyncDynamic:
		rn := new(dynamics.Runner)
		if st != nil {
			rn = st.dyn
		}
		res, err := execSync(ctx, rn, pop, j.rule, o)
		return j.report(reportFromSync(res)), err
	case KindOneExtraBit:
		rn := new(onebit.Runner)
		if st != nil {
			rn = st.ob
		}
		res, err := execOneBit(ctx, rn, pop, o)
		return j.report(reportFromOneExtraBit(res)), err
	default:
		return Report{}, fmt.Errorf("plurality: job %q has unknown kind %d", j.spec, j.kind)
	}
}

// report stamps the job's identity onto a converted report.
func (j *Job) report(rep Report) Report {
	rep.Protocol = j.spec
	return rep
}

// trialState is the pooled per-worker state of Job.Trials: the cloned
// population (or histogram scratch on the counts path) plus the engine
// runner owning the reusable O(n) buffers.
type trialState struct {
	base   *Population
	pop    *Population
	counts []int64
	core   *core.Runner
	dyn    *dynamics.Runner
	ob     *onebit.Runner
}

// newTrialState builds one worker's pooled state; base is nil exactly on
// the counts path.
func (j *Job) newTrialState(base *Population) *trialState {
	st := &trialState{base: base}
	if base != nil {
		st.pop = base.Clone()
	} else {
		st.counts = make([]int64, len(j.counts))
	}
	switch j.kind {
	case KindCore:
		st.core = core.NewRunner()
	case KindOneExtraBit:
		st.ob = new(onebit.Runner)
	default:
		st.dyn = new(dynamics.Runner)
	}
	return st
}

// Trials executes trials independent runs of the job, sharded across
// WithTrialWorkers goroutines (default GOMAXPROCS). Trial t runs with a
// seed derived deterministically from the base WithSeed and t (see
// TrialSeed), so the result slice is a pure function of (job, trials) —
// independent of the worker count and of scheduling — and trial 0 is
// bit-identical to Run. Results are returned in trial order; the first
// failing trial's error (lowest index) is returned alongside the full
// slice, with later trials still run, so convergence failures leave every
// report usable.
//
// Per-worker state is pooled across trials via sync.Pool: populations and
// engine buffers — roughly seven O(n) slices for the core protocol, the
// staging/pending buffers of the dynamics engines, the O(k) histogram of
// counts jobs — are reused instead of reallocated and rezeroed, for every
// registered protocol and engine. Pooling cannot change results: a trial's
// outcome is a pure function of its seed.
//
// A trial can use a second goroutine of its own. A per-node or core run on
// the complete graph under Poisson clocks draws its ticks ahead on one once
// it passes its first 2¹⁶ ticks, and joins it before the run returns. Runs
// on other graphs, under the other models, or too short to pass that
// prefix draw on their worker alone: a CSR run waits on memory rather than
// on the scheduler, and the sequential draw is too cheap to hand off.
// Results never depend on it, since the scheduler draws from a stream of
// its own.
//
// ctx cancels the whole fan-out: trials that already ran keep their
// reports, and the first canceled trial's context error is returned.
// Observer callbacks (WithObserver, WithProbe) are invoked concurrently
// from trial workers.
func (j *Job) Trials(ctx context.Context, trials int) ([]Report, error) {
	if trials <= 0 {
		return nil, fmt.Errorf("plurality: trials = %d, want > 0", trials)
	}
	var base *Population
	if !j.histogram && j.o.transport == nil {
		var err error
		if base, err = NewPopulation(j.counts); err != nil {
			return nil, err
		}
	}

	// One pooled state per concurrently active worker; sync.Pool keeps the
	// states alive exactly as long as the trial loop needs them.
	pool := sync.Pool{New: func() any { return j.newTrialState(base) }}
	results := make([]Report, trials)
	err := par.ForEach(j.o.trialWorkers, trials, func(trial int) error {
		st := pool.Get().(*trialState)
		defer pool.Put(st)
		to := *j.o
		to.seed = TrialSeed(j.o.seed, trial)
		rep, err := j.run(ctx, &to, st)
		results[trial] = rep
		return err
	})
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

// --- execution layer ------------------------------------------------------
//
// The exec helpers below run one engine each for the Job methods. ctx is
// honored through each engine's Stop hook; a Background (or otherwise
// never-canceled) context compiles to a nil hook and costs nothing on the
// hot path.

// stopFunc derives an engine Stop hook from ctx; nil when ctx can never be
// canceled.
func stopFunc(ctx context.Context) func() bool {
	if ctx == nil || ctx.Done() == nil {
		return nil
	}
	return func() bool { return ctx.Err() != nil }
}

// ctxErr rewraps an engine's stop sentinel as the context's own error so
// callers can match errors.Is(err, context.Canceled) and friends; other
// errors pass through.
func ctxErr(ctx context.Context, err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, core.ErrStopped) || errors.Is(err, dynamics.ErrStopped) || errors.Is(err, onebit.ErrStopped) {
		if cause := context.Cause(ctx); cause != nil {
			return fmt.Errorf("plurality: %w (%v)", cause, err)
		}
	}
	return err
}

// execCore executes one core-protocol run on the given (possibly reused)
// runner.
func execCore(ctx context.Context, rn *core.Runner, pop *Population, o *options) (CoreResult, error) {
	g, err := o.topology(pop)
	if err != nil {
		return CoreResult{}, err
	}
	s, err := o.scheduler(pop.N())
	if err != nil {
		return CoreResult{}, err
	}
	adv, err := o.newAdversary()
	if err != nil {
		return CoreResult{}, err
	}
	cfg := o.coreConfig(g)
	cfg.Scheduler = s
	cfg.Rand = rng.At(o.seed, 1)
	cfg.Stop = stopFunc(ctx)
	cfg.Adversary = adv
	o.coreObserver(&cfg, pop)
	res, err := rn.Run(pop, cfg)
	return res, ctxErr(ctx, err)
}

// execAsync executes one asynchronous sampling-dynamics run on pop.
func execAsync(ctx context.Context, rn *dynamics.Runner, pop *Population, rule dynamics.Rule, o *options) (dynamics.AsyncResult, error) {
	g, err := o.topology(pop)
	if err != nil {
		return dynamics.AsyncResult{}, err
	}
	cfg, err := o.asyncConfig(ctx, g, pop.N())
	if err != nil {
		return dynamics.AsyncResult{}, err
	}
	res, err := rn.RunAsync(pop, rule, cfg)
	return res, ctxErr(ctx, err)
}

// execSync executes one synchronous sampling-dynamics run on pop.
func execSync(ctx context.Context, rn *dynamics.Runner, pop *Population, rule dynamics.Rule, o *options) (dynamics.SyncResult, error) {
	g, err := o.topology(pop)
	if err != nil {
		return dynamics.SyncResult{}, err
	}
	adv, err := o.newAdversary()
	if err != nil {
		return dynamics.SyncResult{}, err
	}
	obs := o.newSyncObserver()
	res, err := rn.RunSync(pop, rule, dynamics.SyncConfig{
		Graph:     g,
		Rand:      rng.At(o.seed, 0),
		MaxRounds: o.maxRounds,
		Stop:      stopFunc(ctx),
		OnRound:   obs.onRound(),
		Adversary: adv,
	})
	if errors.Is(err, dynamics.ErrStopped) {
		// The engine stops between rounds, where no per-round hook fires;
		// close the observation stream with the interrupted state.
		obs.final(res.Rounds, pop)
	}
	return res, ctxErr(ctx, err)
}

// execCounts executes one count-collapsed run directly on the histogram of
// n nodes (mutated in place to the final histogram).
func execCounts(ctx context.Context, rn *dynamics.Runner, counts []int64, n int64, rule dynamics.Rule, o *options) (dynamics.AsyncResult, error) {
	cfg, err := o.asyncConfig(ctx, o.graph, int(n))
	if err != nil {
		return dynamics.AsyncResult{}, err
	}
	res, err := rn.RunAsyncCounts(counts, rule, cfg)
	return res, ctxErr(ctx, err)
}

// execOneBit executes one OneExtraBit run on pop.
func execOneBit(ctx context.Context, rn *onebit.Runner, pop *Population, o *options) (OneExtraBitResult, error) {
	g, err := o.topology(pop)
	if err != nil {
		return OneExtraBitResult{}, err
	}
	obs := o.newOneBitObserver()
	res, err := rn.Run(pop, onebit.Config{
		Graph:             g,
		Rand:              rng.At(o.seed, 0),
		MaxPhases:         o.maxPhases,
		PropagationRounds: o.propagationRounds,
		OnPhase:           obs.hook(o.onPhase),
		Stop:              stopFunc(ctx),
	})
	if errors.Is(err, onebit.ErrStopped) {
		// Interrupted runs end between rounds, where no phase hook fires;
		// close the observation stream with the interrupted state.
		obs.final(res.Phases, pop)
	}
	return res, ctxErr(ctx, err)
}

// asyncConfig assembles the dynamics configuration of an n-node run on g,
// shared by the population and histogram paths.
func (o *options) asyncConfig(ctx context.Context, g Graph, n int) (dynamics.AsyncConfig, error) {
	s, err := o.scheduler(n)
	if err != nil {
		return dynamics.AsyncConfig{}, err
	}
	adv, err := o.newAdversary()
	if err != nil {
		return dynamics.AsyncConfig{}, err
	}
	cfg := dynamics.AsyncConfig{
		Graph:     g,
		Scheduler: s,
		Rand:      rng.At(o.seed, 1),
		MaxTime:   o.maxTime,
		Latency:   o.latency,
		Churn:     o.churnRate,
		Engine:    dynamics.EngineAuto,
		Leap:      occupancy.LeapConfig{Eps: o.leapEps, ODETheta: o.odeTheta},
		Stop:      stopFunc(ctx),
		Adversary: adv,
	}
	switch o.engine {
	case EnginePerNode:
		cfg.Engine = dynamics.EnginePerNode
	case EngineOccupancy:
		cfg.Engine = dynamics.EngineOccupancy
	case EngineLeap:
		cfg.Engine = dynamics.EngineLeap
	}
	if o.delayRate > 0 {
		cfg.Delay = sched.ExpDelay{Rate: o.delayRate}
	}
	cfg.ObserveInterval, cfg.OnSnapshot = o.asyncObserver()
	return cfg, nil
}

// topology returns the configured graph or the default complete graph
// sized to the population.
func (o *options) topology(pop *Population) (Graph, error) {
	if o.graph != nil {
		return o.graph, nil
	}
	return CompleteGraph(pop.N())
}

// scheduler builds the configured asynchronous engine.
func (o *options) scheduler(n int) (sched.Scheduler, error) {
	switch o.model {
	case Sequential:
		return sched.NewSequential(n, rng.At(o.seed, 0))
	case Poisson:
		return sched.NewPoisson(n, 1, rng.At(o.seed, 0))
	case HeapPoisson:
		return sched.NewHeapPoisson(n, 1, rng.At(o.seed, 0))
	case Synchronous:
		return nil, fmt.Errorf("plurality: the Synchronous model has no asynchronous scheduler; it selects the round-based dynamics engine")
	default:
		return nil, fmt.Errorf("plurality: unknown model %d", o.model)
	}
}
