// Package dynamics is the shared execution engine for memoryless sampling
// dynamics: protocols where a node's next opinion is a function of its own
// opinion and a fixed number of uniformly sampled neighbor opinions.
// Two-Choices, Voter and 3-Majority are all rules in this family.
//
// The engine runs a rule under either communication model of the paper:
//
//   - RunSync: the synchronous model — discrete rounds, all nodes sample the
//     frozen current configuration and update simultaneously (Theorem 1.1's
//     setting).
//   - RunAsync: the asynchronous model — a sched.Scheduler delivers ticks
//     and the ticking node updates immediately, optionally with exponential
//     response delays (§4 extension).
package dynamics

import (
	"errors"
	"fmt"

	"plurality/internal/adversary"
	"plurality/internal/graph"
	"plurality/internal/lumped"
	"plurality/internal/occupancy"
	"plurality/internal/plan"
	"plurality/internal/population"
	"plurality/internal/rng"
	"plurality/internal/sched"
	"plurality/internal/syncsim"
)

// ErrTimeLimit reports an asynchronous run that did not reach consensus
// within its time budget.
var ErrTimeLimit = errors.New("dynamics: time limit exceeded")

// ErrStopped reports a run interrupted by its Stop hook (context
// cancellation at the public layer) before consensus or its budget.
var ErrStopped = errors.New("dynamics: run stopped")

// Snapshot is one streamed observation of a running configuration — the
// shared currency of the engines' OnSnapshot hooks. It is the occupancy
// engine's snapshot type re-exported so per-node and count-collapsed runs
// deliver identical observations.
type Snapshot = occupancy.Snapshot

// Runner executes dynamics runs while pooling the per-run scratch state —
// the neighbor-sample buffer, the per-node engine's tick batches and staged
// neighbor draws, the per-node pending-update slice of blocking runs, the
// synchronous staging buffer and the count-collapsed engine's histogram
// scratch — so trial loops stop paying an allocation-and-zero cost per run.
// A Runner is not safe for concurrent use; parallel drivers keep one per
// worker. Buffer reuse cannot change results: every buffer is
// (re)initialized before the run consumes it.
type Runner struct {
	sampled []population.Color
	batch   []sched.Tick
	feed    sched.Feed
	peers   []int
	// touched folds the loads of the staged loop's touch pass, so the
	// compiler keeps them.
	touched int
	pending []pendingUpdate
	buf     *syncsim.Buffer
	snap    []int64
	occ     occupancy.Runner
	lum     lumped.Runner
	lumpM   []int64
	lumpU   []int64
}

// Rule is one sampling dynamic. Implementations must be stateless: the
// engine may call Next concurrently for distinct trials.
type Rule interface {
	// Name identifies the rule in traces and tables.
	Name() string
	// SampleCount is the number of neighbor samples the rule consumes per
	// activation.
	SampleCount() int
	// Next returns the node's next color given its own color and the
	// sampled colors (len == SampleCount()). Returning own keeps the
	// opinion; returning population.None moves the node to the *undecided*
	// state (Undecided-State Dynamics — such rules also see None in own
	// and sampled, and should implement occupancy.Undecided so the
	// count-collapsed engine can represent the extra state). r is
	// available for randomized tie-breaking. The per-node engine draws
	// all of a tick batch's samples before any of that batch's Next
	// calls, so draws made here follow the whole batch's samples in r's
	// stream.
	Next(r *rng.RNG, own population.Color, sampled []population.Color) population.Color
}

// SyncConfig configures a synchronous run.
type SyncConfig struct {
	// Graph is the communication topology. Required.
	Graph graph.Graph
	// Rand drives all sampling. Required.
	Rand *rng.RNG
	// MaxRounds bounds the run. Required (> 0).
	MaxRounds int
	// OnRound, if set, observes the population after each committed round.
	OnRound func(round int, pop *population.Population)
	// Stop, if non-nil, is polled at every round boundary; returning true
	// abandons the run with ErrStopped and the rounds completed so far.
	Stop func() bool
	// Adversary, if non-nil, attacks the run: corruption adversaries flip
	// opinions after every committed round, Byzantine adversaries lie
	// inside the frozen-round sampling. Scheduling adversaries are
	// rejected — synchronous rounds have no activation order to bias.
	Adversary *adversary.Adversary
}

// SyncResult describes a completed synchronous run.
type SyncResult struct {
	// Rounds executed (including the final one).
	Rounds int
	// Done reports whether consensus was reached within MaxRounds.
	Done bool
	// Winner is the consensus color if Done, else the current plurality.
	Winner population.Color
	// Undecided is the number of nodes USD's undecided state holds when
	// the run ends; always 0 for rules without an undecided state.
	Undecided int64
	// Corruptions is the number of opinions the adversary rewrote:
	// corruption flips plus Byzantine lies.
	Corruptions int64
	// Biased is the number of activations the adversary redirected or
	// suppressed; always 0 for synchronous runs.
	Biased int64
}

// RunSync executes the rule in the synchronous model until consensus or
// MaxRounds. On round exhaustion it returns the partial result together
// with ErrTimeLimit-compatible syncsim.ErrRoundLimit.
func RunSync(pop *population.Population, rule Rule, cfg SyncConfig) (SyncResult, error) {
	var rn Runner
	return rn.RunSync(pop, rule, cfg)
}

// RunSync is Runner's scratch-pooling equivalent of the package-level
// RunSync; results for a fixed seed are bit-identical.
func (rn *Runner) RunSync(pop *population.Population, rule Rule, cfg SyncConfig) (SyncResult, error) {
	if err := validateSync(pop, rule, cfg); err != nil {
		return SyncResult{}, err
	}
	if pop.IsUnanimous() {
		return SyncResult{Done: true, Winner: pop.Plurality()}, nil
	}
	var (
		n       = pop.N()
		s       = rule.SampleCount()
		buf     = rn.syncBuffer(pop)
		sampled = rn.sampleBuffer(s)
		adv     = cfg.Adversary
	)
	res, err := syncsim.RunStop(cfg.MaxRounds, cfg.Stop, func(round int) (bool, error) {
		// Byzantine lies sample the frozen start-of-round histogram, like
		// every honest sample this round.
		var frozen []int64
		if adv != nil {
			frozen = rn.snapCounts(pop)
		}
		// Stage through the buffer's backing slice directly: one bounds
		// check instead of a method call per node on the hot loop. Every
		// node is staged, so the literal CommitAll applies: a staged None
		// commits the node to the undecided state (USD) rather than
		// meaning "keep" — rules without an undecided state never stage
		// it.
		next := buf.Slice()
		for u := 0; u < n; u++ {
			for i := 0; i < s; i++ {
				sampled[i] = pop.ColorOf(cfg.Graph.Sample(cfg.Rand, u))
				if adv != nil {
					if lie, ok := adv.Lie(frozen, int64(n), float64(round)); ok {
						sampled[i] = lie
					}
				}
			}
			next[u] = rule.Next(cfg.Rand, pop.ColorOf(u), sampled)
		}
		buf.CommitAll(pop)
		if adv != nil {
			corruptPopulation(adv, pop, float64(round), true, nil)
		}
		if cfg.OnRound != nil {
			cfg.OnRound(round, pop)
		}
		return pop.IsUnanimous(), nil
	})
	out := SyncResult{
		Rounds:    res.Rounds,
		Done:      res.Done,
		Winner:    pop.Plurality(),
		Undecided: pop.Undecided(),
	}
	if adv != nil {
		out.Corruptions = adv.Corruptions()
		out.Biased = adv.Biased()
	}
	if errors.Is(err, syncsim.ErrRoundLimit) {
		return out, fmt.Errorf("dynamics: %s did not converge in %d rounds: %w", rule.Name(), cfg.MaxRounds, ErrTimeLimit)
	}
	if errors.Is(err, syncsim.ErrStopped) {
		return out, fmt.Errorf("dynamics: %s stopped after %d rounds: %w", rule.Name(), out.Rounds, ErrStopped)
	}
	return out, err
}

// syncBuffer returns the pooled synchronous staging buffer resized for pop.
func (rn *Runner) syncBuffer(pop *population.Population) *syncsim.Buffer {
	if rn.buf == nil {
		rn.buf = syncsim.NewBuffer(pop)
		return rn.buf
	}
	rn.buf.Fit(pop.N())
	return rn.buf
}

// sampleBuffer returns the pooled neighbor-sample buffer with capacity for
// s samples.
func (rn *Runner) sampleBuffer(s int) []population.Color {
	if cap(rn.sampled) < s {
		rn.sampled = make([]population.Color, s)
	}
	return rn.sampled[:s]
}

// tickBatch returns the pooled tick batch.
func (rn *Runner) tickBatch() []sched.Tick {
	if rn.batch == nil {
		rn.batch = make([]sched.Tick, sched.BatchSize)
	}
	return rn.batch
}

// peerBuffer returns the pooled buffer for a batch's neighbor draws, s per
// tick.
func (rn *Runner) peerBuffer(s int) []int {
	if cap(rn.peers) < sched.BatchSize*s {
		rn.peers = make([]int, sched.BatchSize*s)
	}
	return rn.peers[:sched.BatchSize*s]
}

func validateSync(pop *population.Population, rule Rule, cfg SyncConfig) error {
	switch {
	case pop == nil:
		return errors.New("dynamics: nil population")
	case rule == nil:
		return errors.New("dynamics: nil rule")
	case cfg.Graph == nil:
		return errors.New("dynamics: nil graph")
	case cfg.Rand == nil:
		return errors.New("dynamics: nil rand")
	case cfg.MaxRounds <= 0:
		return fmt.Errorf("dynamics: MaxRounds = %d, want > 0", cfg.MaxRounds)
	case cfg.Graph.N() != pop.N():
		return fmt.Errorf("dynamics: graph has %d nodes, population %d", cfg.Graph.N(), pop.N())
	case rule.SampleCount() <= 0:
		return fmt.Errorf("dynamics: rule %s samples %d nodes, want > 0", rule.Name(), rule.SampleCount())
	}
	if adv := cfg.Adversary; adv != nil && adv.Family() == adversary.FamilyScheduling {
		return fmt.Errorf("dynamics: scheduling adversary %s needs asynchronous activations; synchronous rounds have no activation order to bias", adv.Desc().Name)
	}
	return validateUndecided(pop, rule)
}

// snapCounts fills the pooled histogram scratch with pop's current decided
// counts — the frozen view synchronous Byzantine lies sample.
func (rn *Runner) snapCounts(pop *population.Population) []int64 {
	k := pop.K()
	if cap(rn.snap) < k {
		rn.snap = make([]int64, k)
	}
	buf := rn.snap[:k]
	copy(buf, pop.CountsView())
	return buf
}

// corruptPopulation materializes one corruption window on a per-node
// population: plan against the decided histogram, then flip concrete
// plurality holders to the minority opinion. everyRound skips the
// parallel-time window accounting (synchronous runs corrupt once per
// committed round). skip, when non-nil, excludes nodes the caller considers
// untouchable.
func corruptPopulation(adv *adversary.Adversary, pop *population.Population, now float64, everyRound bool, skip func(int) bool) {
	if adv.Family() != adversary.FamilyCorruption {
		return
	}
	if !everyRound && !adv.CorruptionDue(now) {
		return
	}
	from, to, x := adv.PlanFlips(pop.CountsView(), now)
	if x <= 0 {
		return
	}
	var done int64
	for i := int64(0); i < x; i++ {
		u, ok := adv.FindHolder(pop, from, skip)
		if !ok {
			break
		}
		pop.SetColor(u, to)
		done++
	}
	adv.NoteCorruptions(done)
}

// validateUndecided rejects populations holding undecided (None) nodes
// under rules without an undecided state: such a rule has no defined
// semantics for None samples — it would adopt the "color" and the run
// could absorb into an undetectable all-undecided state.
func validateUndecided(pop *population.Population, rule Rule) error {
	if u := pop.Undecided(); u > 0 {
		if _, ok := rule.(occupancy.Undecided); !ok {
			return fmt.Errorf("dynamics: population holds %d undecided nodes, but rule %s has no undecided state", u, rule.Name())
		}
	}
	return nil
}

// Engine selects RunAsync's execution strategy: the engine a run asks
// for. plan.Choose resolves it to the path that runs.
type Engine int

const (
	// EngineAuto (the default) takes the first engine that hosts the run
	// in plan's preference order. The collapsed engines are exact but
	// consume the RNG differently, so fixed-seed trajectories differ.
	EngineAuto Engine = iota
	// EnginePerNode forces the per-node simulation.
	EnginePerNode
	// EngineOccupancy requires count-collapsed execution — the occupancy
	// engine on the clique or the lumped engine on a graph.Classed topology;
	// a run no collapsed engine hosts fails with plan.Choose's rejection.
	EngineOccupancy
	// EngineLeap requires the hybrid tau-leap/mean-field engine: the
	// count-collapsed histogram advanced many transitions per step, with
	// automatic handoff to the mean-field ODE in the fluctuation-free bulk
	// and automatic fallback to the exact jump chain near small buckets.
	// Approximate by design (error budget via AsyncConfig.Leap) and built
	// for n beyond the exact engine's reach (10¹⁰–10¹²⁺).
	EngineLeap
)

// AsyncConfig configures an asynchronous run.
type AsyncConfig struct {
	// Graph is the communication topology. Required.
	Graph graph.Graph
	// Scheduler delivers node activations. Required; its node count must
	// match the population.
	Scheduler sched.Scheduler
	// Rand drives neighbor sampling (it may be the same generator that
	// drives the scheduler). Required.
	Rand *rng.RNG
	// MaxTime bounds the run in parallel time. Required (> 0).
	MaxTime float64
	// Delay models response latency; nil means the paper's base model
	// (instant responses).
	Delay sched.DelayModel
	// Latency models per-edge message latency (the Bankhamer et al.
	// edge-latency extension): each neighbor sampled by an activation
	// costs an independent latency draw on the used edge and the decided
	// update applies only once the slowest response has arrived, the node
	// blocking meanwhile. Composes additively with Delay. nil means
	// instant edges.
	Latency sched.LatencyModel
	// Churn, in [0, 1), is the probability that an activation is a churn
	// event: the node is replaced by a fresh joiner holding a uniformly
	// random opinion instead of executing the rule. Exact consensus stays
	// reachable only while Churn·n is o(1).
	Churn float64
	// OnTick, if set, observes every delivered tick (after the node's
	// action). Setting it forces the per-node engine.
	OnTick func(t sched.Tick, pop *population.Population)
	// Engine selects the execution strategy (default EngineAuto).
	Engine Engine
	// Leap carries the error-budget knobs of the hybrid leap engine
	// (EngineLeap, or EngineAuto runs escalated past plan.LeapAutoN); the zero
	// value selects the occupancy package's defaults. Ignored by the exact
	// engines.
	Leap occupancy.LeapConfig
	// Stop, if non-nil, is polled at a coarse stride (per tick batch);
	// returning true abandons the run with ErrStopped and the progress made
	// so far.
	Stop func() bool
	// OnSnapshot, if set, streams periodic histogram Snapshots every
	// ObserveInterval units of parallel time (an interval <= 0 observes
	// every activation). Unlike OnTick it does not block the count-collapse:
	// collapsed runs deliver the same snapshots from the occupancy engine,
	// where observation forces tick mode. Snapshot.Counts aliases
	// engine-owned memory and is only valid during the callback.
	ObserveInterval float64
	OnSnapshot      func(Snapshot)
	// Adversary, if non-nil, attacks the run: scheduling adversaries
	// redirect or suppress activations, corruption adversaries flip
	// opinions at parallel-time window boundaries, Byzantine adversaries
	// lie inside the sampling path. Collapsed runs execute it in the
	// occupancy engine's exact tick mode; plan.Choose records which engines
	// host which families.
	Adversary *adversary.Adversary
}

// AsyncResult describes a completed asynchronous run.
type AsyncResult struct {
	// Time is the parallel time of the tick that completed consensus (or
	// of the last tick before the budget ran out).
	Time float64
	// Ticks is the number of activations delivered.
	Ticks int64
	// Done reports whether consensus was reached within MaxTime.
	Done bool
	// Winner is the consensus color if Done, else the current plurality.
	Winner population.Color
	// Churns is the total number of churn events (node replacements).
	Churns int64
	// Undecided is the number of nodes USD's undecided state holds when
	// the run ends; always 0 for rules without an undecided state.
	Undecided int64
	// Corruptions is the number of opinions the adversary rewrote:
	// corruption flips plus Byzantine lies.
	Corruptions int64
	// Biased is the number of activations the adversary redirected or
	// suppressed.
	Biased int64
	// Engine is the execution path plan.Choose picked for the run.
	Engine plan.Engine
}

// pendingUpdate is a decided but not yet applied opinion change, waiting for
// its response delay to elapse.
type pendingUpdate struct {
	readyAt float64
	next    population.Color
	waiting bool
}

// RunAsync executes the rule in the asynchronous model until consensus or
// MaxTime of parallel time. With a non-nil Delay, a tick either issues a
// request (sampling neighbor states at request time) or — once the response
// has arrived — applies the decided update; ticks that land while a response
// is in flight are spent waiting, exactly the "node blocks for its response"
// reading of the paper's §4 extension.
func RunAsync(pop *population.Population, rule Rule, cfg AsyncConfig) (AsyncResult, error) {
	var rn Runner
	return rn.RunAsync(pop, rule, cfg)
}

// stopCheckStride is how many per-node ticks pass between Stop polls on the
// general (non-batch-aligned) path.
const stopCheckStride = 1024

// RunAsync is Runner's scratch-pooling equivalent of the package-level
// RunAsync; results for a fixed seed are bit-identical. plan.Choose picks
// the engine: on the clique the occupancy (or leap) engine runs on the color
// histogram, on graph.Classed topologies the lumped engine on the
// (degree-class × color) matrix, and the per-node engine otherwise.
func (rn *Runner) RunAsync(pop *population.Population, rule Rule, cfg AsyncConfig) (AsyncResult, error) {
	if err := validateAsync(pop, rule, cfg); err != nil {
		return AsyncResult{}, err
	}
	eng, err := plan.Choose(request(cfg, rule, pop.K(), int64(pop.N()), false))
	if err != nil {
		return AsyncResult{}, fmt.Errorf("dynamics: %w", err)
	}
	var res AsyncResult
	switch {
	case pop.IsUnanimous():
		res = AsyncResult{Done: true, Winner: pop.Plurality()}
	case eng == plan.Lumped:
		res, err = rn.runLumped(pop, rule, cfg)
	case eng == plan.Occupancy || eng == plan.Leap:
		res, err = rn.runCollapsed(pop, rule, cfg, eng)
	default:
		res, err = rn.runPerNode(pop, rule, cfg)
	}
	res.Engine = eng
	return res, err
}

// runPerNode executes the run node by node: every activation samples,
// decides and applies on the population itself. In the paper's base model
// the ticks run in staged batches, which draw every sample of a batch
// before any of the batch's Next calls: a rule whose Next draws nothing
// consumes cfg.Rand exactly as one activation after another would, and a
// rule that breaks ties with r draws its tie-breaks after its batch's
// samples.
func (rn *Runner) runPerNode(pop *population.Population, rule Rule, cfg AsyncConfig) (AsyncResult, error) {
	var (
		n        = pop.N()
		s        = rule.SampleCount()
		sampled  = rn.sampleBuffer(s)
		pending  []pendingUpdate
		delaying = cfg.Delay != nil
		latent   = cfg.Latency != nil
		churning = cfg.Churn > 0
	)
	if delaying {
		if _, instant := cfg.Delay.(sched.ZeroDelay); instant {
			delaying = false
		}
	}
	// blocking selects the request/response execution path: an activation
	// issues a request (sampling neighbor states at request time) and the
	// decided update applies only once every response has arrived.
	blocking := delaying || latent
	if blocking {
		if cap(rn.pending) < n {
			rn.pending = make([]pendingUpdate, n)
		}
		pending = rn.pending[:n]
		clear(pending)
	}

	var res AsyncResult
	apply := func(u int, next population.Color) {
		if next == pop.ColorOf(u) {
			return
		}
		// next == None moves the node to the undecided state (USD).
		pop.SetColor(u, next)
		if next != population.None && pop.Count(next) == int64(n) {
			res.Done = true
		}
	}

	// Fast path for the paper's base model: no delays, no latencies, no
	// churn, no observer and no adversary. Each batch of ticks runs in
	// three passes, so that its cache misses overlap instead of waiting
	// one after another behind the adopt branch:
	//  1. draw every tick's s neighbors, in tick order;
	//  2. touch every color the batch will read, the activated node's and
	//     each neighbor's, with no data-dependent branch;
	//  3. apply the ticks in order on live colors, so a node written
	//     earlier in the batch is read as written.
	// Graph.Sample depends only on the graph, the node and the RNG, so
	// pass 1 draws what one activation after another would. (Stop stays
	// compatible with it — one poll per batch — but snapshot observation
	// needs the per-tick time check of the general path.) On the clique
	// the feed may draw the ticks ahead on a second goroutine; a CSR
	// batch waits on memory, not on the scheduler, and gained nothing
	// dependable from a contended second core.
	if bs, ok := cfg.Scheduler.(sched.BatchScheduler); ok && !blocking && !churning && cfg.OnTick == nil && cfg.OnSnapshot == nil && cfg.Adversary == nil {
		peers := rn.peerBuffer(s)
		_, clique := cfg.Graph.(graph.Complete)
		rn.feed.Start(bs, cfg.Rand, clique)
		defer rn.feed.Close()
		for !res.Done {
			if cfg.Stop != nil && cfg.Stop() {
				res.Winner = pop.Plurality()
				res.Undecided = pop.Undecided()
				return res, fmt.Errorf("dynamics: %s stopped at time %v: %w", rule.Name(), res.Time, ErrStopped)
			}
			ticks := rn.feed.Next()
			for len(ticks) > 0 && ticks[len(ticks)-1].Time > cfg.MaxTime {
				ticks = ticks[:len(ticks)-1]
			}
			touched := drawPeers(cfg.Graph, cfg.Rand, ticks, s, peers)
			for i, t := range ticks {
				touched += int(pop.ColorOf(t.Node))
				for _, v := range peers[i*s : (i+1)*s] {
					touched += int(pop.ColorOf(v))
				}
			}
			rn.touched += touched
			for i, t := range ticks {
				for j, v := range peers[i*s : (i+1)*s] {
					sampled[j] = pop.ColorOf(v)
				}
				apply(t.Node, rule.Next(cfg.Rand, pop.ColorOf(t.Node), sampled))
				res.Time, res.Ticks = t.Time, t.Seq+1
				if res.Done {
					break
				}
			}
			if !res.Done && len(ticks) < sched.BatchSize {
				res.Winner = pop.Plurality()
				res.Undecided = pop.Undecided()
				return res, fmt.Errorf("dynamics: %s did not converge by time %v: %w", rule.Name(), cfg.MaxTime, ErrTimeLimit)
			}
		}
		res.Winner = pop.Plurality()
		res.Undecided = pop.Undecided()
		return res, nil
	}

	var (
		observing   = cfg.OnSnapshot != nil
		nextObserve float64
		lastEmit    int64 = -1 // Seq+1 of the last emitted snapshot (-1 = none)
		stopCheck   int
		interrupted bool
		adv         = cfg.Adversary
	)
	if adv != nil {
		adv.InitVictims(n)
	}
	last, stopped := sched.RunBatch(cfg.Scheduler, cfg.MaxTime, rn.tickBatch(), func(t sched.Tick) bool {
		if cfg.Stop != nil {
			if stopCheck--; stopCheck <= 0 {
				stopCheck = stopCheckStride
				if cfg.Stop() {
					interrupted = true
					return false
				}
			}
		}
		u := t.Node
		suppressed := false
		if adv != nil {
			corruptPopulation(adv, pop, t.Time, false, nil)
			if adv.Victim(u) {
				adv.NoteBias()
				suppressed = true
			} else if c, ok := adv.BiasColor(pop.CountsView(), t.Time); ok {
				if v, found := adv.FindHolder(pop, c, nil); found {
					u = v
					adv.NoteBias()
				}
			}
		}
		switch {
		case suppressed:
			// The delay-set suppressed this activation; the tick is spent
			// idle, exactly like a tick landing mid-response-wait.
		case blocking && pending[u].waiting && t.Time >= pending[u].readyAt:
			// Response has arrived: apply the decided update.
			apply(u, pending[u].next)
			pending[u].waiting = false
		case blocking && pending[u].waiting:
			// Still waiting for the response; the tick is spent idle.
		case churning && cfg.Rand.Bernoulli(cfg.Churn):
			// Churn event: a fresh joiner with a random opinion replaces
			// the node instead of executing the rule.
			apply(u, population.Color(cfg.Rand.Intn(pop.K())))
			res.Churns++
		default:
			// The per-edge latency of the slowest sampled neighbor gates
			// when the decided update can apply.
			var lat float64
			for i := 0; i < s; i++ {
				v := cfg.Graph.Sample(cfg.Rand, u)
				sampled[i] = pop.ColorOf(v)
				if adv != nil {
					if lie, ok := adv.Lie(pop.CountsView(), int64(n), t.Time); ok {
						sampled[i] = lie
					}
				}
				if latent {
					if l := cfg.Latency.SampleLatency(cfg.Rand, u, v); l > lat {
						lat = l
					}
				}
			}
			next := rule.Next(cfg.Rand, pop.ColorOf(u), sampled)
			if !blocking {
				apply(u, next)
				break
			}
			d := lat
			if delaying {
				d += cfg.Delay.SampleDelay(cfg.Rand)
			}
			if d <= 0 {
				apply(u, next)
				break
			}
			pending[u] = pendingUpdate{readyAt: t.Time + d, next: next, waiting: true}
		}
		if cfg.OnTick != nil {
			cfg.OnTick(t, pop)
		}
		if observing && t.Time >= nextObserve {
			lastEmit = t.Seq + 1
			rn.emitSnapshot(cfg.OnSnapshot, pop, t.Time, lastEmit)
			nextObserve = t.Time + cfg.ObserveInterval
		}
		return !res.Done
	})

	res.Time = last.Time
	res.Ticks = last.Seq + 1
	if interrupted {
		// The tick on which the stop poll fired never applied; it is not a
		// delivered activation.
		res.Ticks = last.Seq
	}
	res.Winner = pop.Plurality()
	res.Undecided = pop.Undecided()
	if adv != nil {
		res.Corruptions = adv.Corruptions()
		res.Biased = adv.Biased()
	}
	if observing && lastEmit != res.Ticks {
		// Close the stream with the state the run ended in.
		rn.emitSnapshot(cfg.OnSnapshot, pop, res.Time, res.Ticks)
	}
	if interrupted {
		return res, fmt.Errorf("dynamics: %s stopped at time %v: %w", rule.Name(), res.Time, ErrStopped)
	}
	if !stopped {
		return res, fmt.Errorf("dynamics: %s did not converge by time %v: %w", rule.Name(), cfg.MaxTime, ErrTimeLimit)
	}
	return res, nil
}

// drawPeers is pass 1 of the staged loop: it fills peers with s neighbors
// of each tick's node, in tick order, drawing exactly what s calls of
// g.Sample(r, node) per tick would. The clique and the CSR graph, the
// dominant topologies, draw from a local copy of r's state with the
// bounded draw inlined, and write it back before returning, so before any
// rule's Next can draw from r; every other graph samples through the
// interface. Ahead of the draws a CSR batch touches what each row's first
// load needs, so the batch's cache misses overlap: a regular graph, which
// keeps no row offsets, the first entry of every row, at u·d; any other
// CSR graph every row's degree, which reads its offsets. drawPeers returns
// the sum of what it touched, for the caller's touch pass.
func drawPeers(g graph.Graph, r *rng.RNG, ticks []sched.Tick, s int, peers []int) (touched int) {
	switch g := g.(type) {
	case graph.Complete:
		// Complete.Sample: Intn(n), or without self-sampling
		// IntnExcept(n, u), one draw from [0, n-1) remapped around u. A
		// node index never reaches n, so except = n remaps nothing.
		n := uint64(g.Nodes)
		if !g.WithSelf {
			n--
		}
		x := r.Xoshiro
		for i, t := range ticks {
			except := t.Node
			if g.WithSelf {
				except = g.Nodes
			}
			dst := peers[i*s : (i+1)*s]
			for j := range dst {
				w := x.Uint64()
				v, ok := rng.Bound(w, n)
				if !ok {
					v = x.Reject(w, n)
				}
				if int(v) >= except {
					v++
				}
				dst[j] = int(v)
			}
		}
		r.Xoshiro = x
	case *graph.Adjacency:
		if arena, d := g.Regular(); d > 0 {
			return drawRegular(arena, d, r, ticks, s, peers)
		}
		for _, t := range ticks {
			touched += g.Degree(t.Node)
		}
		// Adjacency.Sample: the row entry at Intn(degree).
		x := r.Xoshiro
		for i, t := range ticks {
			row := g.Neighbors(t.Node)
			d := uint64(len(row))
			dst := peers[i*s : (i+1)*s]
			for j := range dst {
				w := x.Uint64()
				v, ok := rng.Bound(w, d)
				if !ok {
					v = x.Reject(w, d)
				}
				dst[j] = int(row[v])
			}
		}
		r.Xoshiro = x
	default:
		for i, t := range ticks {
			dst := peers[i*s : (i+1)*s]
			for j := range dst {
				dst[j] = g.Sample(r, t.Node)
			}
		}
	}
	return touched
}

// drawRegular is drawPeers on a regular CSR graph, whose node u's row is
// arena[u·d : (u+1)·d]: it touches the first entry of every tick's row,
// then draws each neighbor as Adjacency.Sample does, the row entry at
// Intn(d).
func drawRegular(arena []int32, d int, r *rng.RNG, ticks []sched.Tick, s int, peers []int) (touched int) {
	for _, t := range ticks {
		touched += int(arena[t.Node*d])
	}
	x, bound := r.Xoshiro, uint64(d)
	for i, t := range ticks {
		row := arena[t.Node*d : (t.Node+1)*d]
		dst := peers[i*s : (i+1)*s]
		for j := range dst {
			w := x.Uint64()
			v, ok := rng.Bound(w, bound)
			if !ok {
				v = x.Reject(w, bound)
			}
			dst[j] = int(row[v])
		}
	}
	r.Xoshiro = x
	return touched
}

// emitSnapshot delivers one per-node-engine snapshot, reusing the pooled
// histogram scratch (the callback must not retain Counts).
func (rn *Runner) emitSnapshot(fn func(Snapshot), pop *population.Population, now float64, ticks int64) {
	k := pop.K()
	if cap(rn.snap) < k {
		rn.snap = make([]int64, k)
	}
	buf := rn.snap[:k]
	for c := 0; c < k; c++ {
		buf[c] = pop.Count(population.Color(c))
	}
	fn(Snapshot{Time: now, Ticks: ticks, Counts: buf, Undecided: pop.Undecided()})
}

// request describes the run to the engine planner; histogram marks the
// counts entry point, n the node count.
func request(cfg AsyncConfig, rule Rule, k int, n int64, histogram bool) plan.Request {
	r := plan.Request{
		Want:      plan.WantAuto + plan.Cap(cfg.Engine), // Engine lists the wants in plan's order
		Topology:  graph.SymmetryOf(cfg.Graph),
		FlowLaw:   occupancy.Leapable(rule, k),
		Histogram: histogram,
		N:         n,
	}
	// Any other scheduler leaves the model open; the engine the planner
	// picks validates it.
	switch cfg.Scheduler.(type) {
	case *sched.Sequential:
		r.Model = plan.Sequential
	case *sched.Poisson:
		r.Model = plan.Poisson
	}
	if _, zero := cfg.Delay.(sched.ZeroDelay); cfg.Delay != nil && !zero {
		r.Opts |= plan.Of(plan.ResponseDelay)
	}
	if cfg.Latency != nil {
		r.Opts |= plan.Of(plan.EdgeLatency)
	}
	if cfg.Churn > 0 {
		r.Opts |= plan.Of(plan.Churn)
	}
	if cfg.OnTick != nil {
		r.Opts |= plan.Of(plan.TickObserver)
	}
	if cfg.OnSnapshot != nil {
		r.Opts |= plan.Of(plan.Observer)
	}
	if adv := cfg.Adversary; adv != nil {
		r.Opts |= plan.Of(plan.Adversary)
		r.Family, r.PerNode = adv.Family(), adv.Desc().PerNode
	}
	return r
}

// occupancyConfig is the occupancy engine's configuration of a run, shared
// by the population and histogram entry points.
func occupancyConfig(cfg AsyncConfig, undecided int64) occupancy.Config {
	g, _ := cfg.Graph.(graph.Complete)
	return occupancy.Config{
		WithSelf:        g.WithSelf,
		Scheduler:       cfg.Scheduler,
		Rand:            cfg.Rand,
		MaxTime:         cfg.MaxTime,
		Churn:           cfg.Churn,
		Undecided:       undecided,
		Stop:            cfg.Stop,
		ObserveInterval: cfg.ObserveInterval,
		OnObserve:       cfg.OnSnapshot,
		Adversary:       cfg.Adversary,
	}
}

// runOccupancy executes counts on the occupancy engine, or on the hybrid
// leap engine when eng is plan.Leap, updating counts in place.
func (rn *Runner) runOccupancy(counts []int64, rule Rule, cfg AsyncConfig, undecided int64, eng plan.Engine) (occupancy.Result, error) {
	occCfg := occupancyConfig(cfg, undecided)
	if eng == plan.Leap {
		lres, err := rn.occ.RunLeap(counts, rule, occCfg, cfg.Leap)
		return lres.Result, err
	}
	return rn.occ.Run(counts, rule, occCfg)
}

// runCollapsed executes the run on the color histogram and writes the final
// histogram back into pop (on the clique, which node ends up with which
// color carries no information). Rules with an undecided state carry it in
// the hidden bucket the occupancy engine appends (occupancy.Undecided).
func (rn *Runner) runCollapsed(pop *population.Population, rule Rule, cfg AsyncConfig, eng plan.Engine) (AsyncResult, error) {
	counts := pop.Counts()
	res, err := rn.runOccupancy(counts, rule, cfg, pop.Undecided(), eng)
	if hardError(err) {
		// The run never executed: surface the cause and leave the
		// population untouched (a write-back of the zero-valued result
		// would only mask it with a shape error).
		return AsyncResult{}, err
	}
	if serr := pop.SetCountsUndecided(counts, res.Undecided); serr != nil {
		return AsyncResult{}, serr
	}
	return collapsedResult(res, err, rule, cfg.MaxTime)
}

// runLumped executes the run on the (degree-class × color) count matrix of a
// graph.Classed topology and writes the final matrix back into pop. Annealed
// sampling makes nodes exchangeable within a degree class, so which node of a
// class holds which color carries no information; the write-back lays each
// class range out color-major (decided colors ascending, undecided last),
// mirroring population.FromCounts's block convention.
func (rn *Runner) runLumped(pop *population.Population, rule Rule, cfg AsyncConfig) (AsyncResult, error) {
	classes := cfg.Graph.(graph.Classed).Classes()
	k := pop.K()
	_, undecided := rule.(occupancy.Undecided)
	m, und := rn.lumpMatrix(len(classes), k, undecided)
	u := 0
	for a, cl := range classes {
		for i := int64(0); i < cl.Count; i++ {
			// validateAsync already rejected undecided holders under rules
			// without an undecided state, so c == None implies und != nil.
			if c := pop.ColorOf(u); c == population.None {
				und[a]++
			} else {
				m[a*k+int(c)]++
			}
			u++
		}
	}
	res, err := rn.lum.Run(m, und, rule, lumpedConfig(cfg, classes))
	if hardError(err) {
		return AsyncResult{}, err
	}
	u = 0
	for a := range classes {
		for c := 0; c < k; c++ {
			for i := int64(0); i < m[a*k+c]; i++ {
				pop.SetColor(u, population.Color(c))
				u++
			}
		}
		if und != nil {
			for i := int64(0); i < und[a]; i++ {
				pop.SetColor(u, population.None)
				u++
			}
		}
	}
	return collapsedResult(res, err, rule, cfg.MaxTime)
}

// lumpedConfig is the lumped engine's configuration of a run, shared by the
// population and histogram entry points.
func lumpedConfig(cfg AsyncConfig, classes []graph.Class) lumped.Config {
	return lumped.Config{
		Classes:         classes,
		Scheduler:       cfg.Scheduler,
		Rand:            cfg.Rand,
		MaxTime:         cfg.MaxTime,
		Churn:           cfg.Churn,
		Stop:            cfg.Stop,
		ObserveInterval: cfg.ObserveInterval,
		OnObserve:       cfg.OnSnapshot,
	}
}

// lumpMatrix returns the pooled, zeroed D×k class × color matrix and, when
// undecided is set, the pooled, zeroed per-class undecided column.
func (rn *Runner) lumpMatrix(D, k int, undecided bool) (m, und []int64) {
	if cap(rn.lumpM) < D*k {
		rn.lumpM = make([]int64, D*k)
	}
	m = rn.lumpM[:D*k]
	clear(m)
	if undecided {
		if cap(rn.lumpU) < D {
			rn.lumpU = make([]int64, D)
		}
		und = rn.lumpU[:D]
		clear(und)
	}
	return m, und
}

// RunAsyncCounts executes rule directly on a color histogram (mutated in
// place) with the count-collapsed engine plan.Choose picks — the O(k)-memory
// entry point for populations too large to materialize. cfg.Graph may be nil
// (the implied clique), a graph.Complete or a graph.Classed of matching size.
func RunAsyncCounts(counts []int64, rule Rule, cfg AsyncConfig) (AsyncResult, error) {
	var rn Runner
	return rn.RunAsyncCounts(counts, rule, cfg)
}

// RunAsyncCounts is Runner's scratch-pooling equivalent of the
// package-level RunAsyncCounts; results for a fixed seed are bit-identical.
func (rn *Runner) RunAsyncCounts(counts []int64, rule Rule, cfg AsyncConfig) (AsyncResult, error) {
	if rule == nil {
		return AsyncResult{}, errors.New("dynamics: nil rule")
	}
	if cfg.Engine < EngineAuto || cfg.Engine > EngineLeap {
		return AsyncResult{}, fmt.Errorf("dynamics: unknown engine %d", cfg.Engine)
	}
	var n int64
	for c, v := range counts {
		if v < 0 {
			return AsyncResult{}, fmt.Errorf("dynamics: negative count %d for color %d", v, c)
		}
		n += v
	}
	eng, err := plan.Choose(request(cfg, rule, len(counts), n, true))
	if err != nil {
		return AsyncResult{}, fmt.Errorf("dynamics: %w", err)
	}
	if cfg.Graph != nil && int64(cfg.Graph.N()) != n {
		return AsyncResult{}, fmt.Errorf("dynamics: graph has %d nodes, histogram %d", cfg.Graph.N(), n)
	}
	var res AsyncResult
	if eng == plan.Lumped {
		res, err = rn.runLumpedCounts(counts, rule, cfg)
	} else {
		ores, oerr := rn.runOccupancy(counts, rule, cfg, 0, eng)
		res, err = collapsedResult(ores, oerr, rule, cfg.MaxTime)
	}
	res.Engine = eng
	return res, err
}

// runLumpedCounts executes a counts run on a graph.Classed topology: the
// histogram is split into the (degree-class × color) matrix along the
// canonical color-major node layout (population.FromCounts's blocks
// intersected with the contiguous class ranges), run in the lumped engine,
// and the final matrix folded back into counts.
func (rn *Runner) runLumpedCounts(counts []int64, rule Rule, cfg AsyncConfig) (AsyncResult, error) {
	classes := cfg.Graph.(graph.Classed).Classes()
	k := len(counts)
	_, undecided := rule.(occupancy.Undecided)
	m, und := rn.lumpMatrix(len(classes), k, undecided)
	// Color c's block covers nodes [cStart, cStart+counts[c]); class a's
	// range covers [aStart, aStart+classes[a].Count); each matrix cell is
	// the overlap of the two intervals.
	var cStart int64
	for c, v := range counts {
		cEnd := cStart + v
		var aStart int64
		for a, cl := range classes {
			aEnd := aStart + cl.Count
			if o := min(cEnd, aEnd) - max(cStart, aStart); o > 0 {
				m[a*k+c] = o
			}
			aStart = aEnd
		}
		cStart = cEnd
	}
	res, err := rn.lum.Run(m, und, rule, lumpedConfig(cfg, classes))
	if hardError(err) {
		return AsyncResult{}, err
	}
	clear(counts)
	for a := range classes {
		for c := 0; c < k; c++ {
			counts[c] += m[a*k+c]
		}
	}
	return collapsedResult(res, err, rule, cfg.MaxTime)
}

// hardError reports an error that means the collapsed run never executed,
// as opposed to one that ended it early (time limit, stop).
func hardError(err error) bool {
	return err != nil && !errors.Is(err, occupancy.ErrTimeLimit) && !errors.Is(err, occupancy.ErrStopped)
}

// collapsedResult maps an occupancy result and error onto the package's
// AsyncResult and sentinel conventions.
func collapsedResult(res occupancy.Result, err error, rule Rule, maxTime float64) (AsyncResult, error) {
	out := AsyncResult{
		Time:        res.Time,
		Ticks:       res.Ticks,
		Done:        res.Done,
		Winner:      res.Winner,
		Churns:      res.Churns,
		Undecided:   res.Undecided,
		Corruptions: res.Corruptions,
		Biased:      res.Biased,
	}
	if errors.Is(err, occupancy.ErrTimeLimit) {
		return out, fmt.Errorf("dynamics: %s did not converge by time %v: %w", rule.Name(), maxTime, ErrTimeLimit)
	}
	if errors.Is(err, occupancy.ErrStopped) {
		return out, fmt.Errorf("dynamics: %s stopped at time %v: %w", rule.Name(), res.Time, ErrStopped)
	}
	return out, err
}

func validateAsync(pop *population.Population, rule Rule, cfg AsyncConfig) error {
	switch {
	case pop == nil:
		return errors.New("dynamics: nil population")
	case rule == nil:
		return errors.New("dynamics: nil rule")
	case cfg.Graph == nil:
		return errors.New("dynamics: nil graph")
	case cfg.Scheduler == nil:
		return errors.New("dynamics: nil scheduler")
	case cfg.Rand == nil:
		return errors.New("dynamics: nil rand")
	case cfg.MaxTime <= 0:
		return fmt.Errorf("dynamics: MaxTime = %v, want > 0", cfg.MaxTime)
	case cfg.Graph.N() != pop.N():
		return fmt.Errorf("dynamics: graph has %d nodes, population %d", cfg.Graph.N(), pop.N())
	case cfg.Scheduler.N() != pop.N():
		return fmt.Errorf("dynamics: scheduler has %d nodes, population %d", cfg.Scheduler.N(), pop.N())
	case cfg.Churn < 0 || cfg.Churn >= 1:
		return fmt.Errorf("dynamics: Churn = %v, want [0, 1)", cfg.Churn)
	case rule.SampleCount() <= 0:
		return fmt.Errorf("dynamics: rule %s samples %d nodes, want > 0", rule.Name(), rule.SampleCount())
	case cfg.Engine < EngineAuto || cfg.Engine > EngineLeap:
		return fmt.Errorf("dynamics: unknown engine %d", cfg.Engine)
	}
	return validateUndecided(pop, rule)
}
