// Package occupancy is the count-collapsed execution engine for memoryless
// sampling dynamics on the complete graph. On the clique these processes
// are fully exchangeable: which node holds which color is irrelevant, the
// configuration *is* the color histogram. The engine therefore simulates
// the k-dimensional occupancy (urn) process directly — O(k) memory instead
// of O(n), which is what lets exact simulations reach n = 10⁸–10⁹ — the
// same collapse that lets Becchetti et al. ("Plurality Consensus in the
// Gossip Model") and Bankhamer et al. ("Positive Aging Admits Fast
// Asynchronous Plurality Consensus") analyze these dynamics as urn chains.
//
// # Exactness
//
// The collapse is exact, not an approximation: under both asynchronous
// models every activation hits a uniformly random node (for the Poisson
// engines this follows from the memorylessness of exponential clocks), so
// the activated node's color is distributed by the histogram and the
// histogram evolves as a lumped Markov chain. The engine reproduces the
// per-node engines' distributions of consensus time, tick counts and
// winners — gated by the KS/chi-square equivalence tests in this package —
// while consuming the RNG differently, so fixed-seed trajectories differ
// between engines.
//
// # Leap mode
//
// Rules that expose their count-level transition law (Kerneled: Voter,
// Two-Choices, 3-Majority, USD and j-Majority) run transition by
// transition instead of tick by tick. Most activations are no-ops —
// Two-Choices near consensus changes the histogram once in Θ(n) ticks —
// and the time to the next *effective* activation is geometric in the
// per-tick effective probability p, so the engine draws the skip length in
// O(1) instead of walking the no-ops. The trick that keeps this exact end
// to end is that the *which tick is effective* process is independent of
// the *when do ticks happen* process: tick times are materialized lazily
// from Poisson order statistics (the tick budget inside MaxTime is one
// Poisson(n·rate·MaxTime) draw, the time of the m-th tick given the budget
// is a Beta order statistic; the sequential model's grid m/n is
// deterministic), costing O(1) RNG work per run rather than per tick.
//
// # Tick mode
//
// Rules without a kernel, churn injection, observers and adversaries run
// activation by activation: the activated node's color and the neighbor
// samples are drawn from the cumulative histogram in O(k), still O(k)
// memory, with tick times consumed from the scheduler's NextTimes.
package occupancy

import (
	"errors"
	"fmt"
	"math"

	"plurality/internal/adversary"
	"plurality/internal/population"
	"plurality/internal/rng"
	"plurality/internal/sched"
)

// Rule is the sampling dynamic the engine executes; it is structurally
// identical to dynamics.Rule (redeclared here so the dynamics package can
// depend on this one without a cycle).
type Rule interface {
	// Name identifies the rule in traces and errors.
	Name() string
	// SampleCount is the number of neighbor samples per activation.
	SampleCount() int
	// Next returns the node's next color given its own color and the
	// sampled colors. Histogram buckets are the only valid colors here: a
	// rule whose per-node form returns population.None (go undecided) must
	// implement Undecided so the engine can give that state a bucket — a
	// None returned to the engine itself is a contract violation the tick
	// mode fails loudly on, because silently mapping it to "keep" would
	// diverge from the per-node engines' go-undecided semantics.
	Next(r *rng.RNG, own population.Color, sampled []population.Color) population.Color
}

// Undecided is implemented by rules with an undecided (population.None)
// state, such as Undecided-State Dynamics. A histogram cannot store None,
// so the engine appends one hidden bucket for the undecided holders and
// executes the histogram-convention rule returned by UndecidedRule, in
// which bucket k (the last) plays the undecided state. Plurality and
// winners are evaluated over the k opinion buckets only; the final
// undecided count is reported in Result.Undecided.
type Undecided interface {
	// UndecidedRule returns the rule over k+1 histogram buckets that is
	// distributionally identical to the per-node rule over k colors plus
	// None.
	UndecidedRule(k int) Rule
}

// ErrTimeLimit reports a run that did not reach consensus within MaxTime.
var ErrTimeLimit = errors.New("occupancy: time limit exceeded")

// ErrStopped reports a run interrupted by its Stop hook (context
// cancellation at the public layer) before consensus or MaxTime.
var ErrStopped = errors.New("occupancy: run stopped")

// Snapshot is one streamed observation of a running histogram, delivered to
// Config.OnObserve. Counts aliases engine-owned memory and is valid only
// for the duration of the callback; copy it to retain it.
type Snapshot struct {
	// Time is the parallel time of the activation that triggered the
	// snapshot.
	Time float64
	// Ticks is the number of activations delivered so far.
	Ticks int64
	// Counts is the current histogram over the opinion colors (hidden
	// buckets excluded).
	Counts []int64
	// Undecided is the current number of undecided (hidden-bucket) nodes;
	// 0 for rules without an undecided state.
	Undecided int64
}

// Config configures a count-collapsed run.
type Config struct {
	// WithSelf selects the clique sampling mode: true draws neighbors from
	// all n nodes including the activated one (graph.Complete.WithSelf).
	WithSelf bool
	// Scheduler supplies the asynchronous time model. Leap mode reads only
	// its type and parameters (*sched.Sequential grid or *sched.Poisson
	// rate); tick mode consumes its tick times. Required: a
	// sched.TimeScheduler whose node count equals the histogram total.
	Scheduler sched.Scheduler
	// Rand drives all engine sampling. Required.
	Rand *rng.RNG
	// MaxTime bounds the run in parallel time. Required (> 0).
	MaxTime float64
	// Churn is the per-activation probability of a churn event (the node
	// is replaced by a fresh joiner with a uniformly random opinion).
	// Churn > 0 forces tick mode.
	Churn float64
	// Undecided is the number of initially undecided (None-holding) nodes;
	// they occupy the hidden bucket the engine appends for rules
	// implementing the Undecided interface. Must be 0 for rules without an
	// undecided state.
	Undecided int64
	// ForceTick disables the leap fast path, used by the equivalence tests
	// to compare the two modes.
	ForceTick bool
	// Adversary, if non-nil, attacks the run: scheduling adversaries
	// redirect activations, corruption adversaries flip opinions at window
	// boundaries, Byzantine adversaries lie inside the sampling path. An
	// active adversary forces tick mode — corruption and biased sampling
	// break the exchangeability-preserving transition law the leap fast
	// path's geometric skips rely on. Per-node adversaries (delay-set) are
	// rejected: the histogram has no node identity to delay.
	Adversary *adversary.Adversary
	// Stop, if non-nil, is polled at a coarse stride (every batch in tick
	// mode, every stopCheckStride transitions in leap mode); returning true
	// abandons the run with ErrStopped and the progress made so far. The
	// hook must be cheap but need not be trivially so — it is never called
	// per activation.
	Stop func() bool
	// OnObserve, if set, streams periodic Snapshot observations every
	// ObserveInterval units of parallel time (an interval <= 0 observes
	// every activation). Observation needs materialized per-tick times, so
	// it forces tick mode — leap mode's lazily drawn order-statistic times
	// cannot be queried per transition without changing the RNG stream.
	ObserveInterval float64
	OnObserve       func(Snapshot)
}

// Result describes a completed count-collapsed run; it mirrors
// dynamics.AsyncResult.
type Result struct {
	// Time is the parallel time of the tick that completed consensus (or
	// of the last tick inside the budget).
	Time float64
	// Ticks is the number of activations delivered, skipped no-ops
	// included.
	Ticks int64
	// Done reports whether consensus was reached within MaxTime.
	Done bool
	// Winner is the consensus color if Done, else the current plurality
	// over the opinion colors (undecided nodes never win).
	Winner population.Color
	// Churns is the number of churn events.
	Churns int64
	// Undecided is the number of nodes left undecided when the run ended;
	// always 0 for rules without an undecided state.
	Undecided int64
	// Corruptions is the number of opinions the adversary rewrote:
	// corruption flips plus Byzantine lies.
	Corruptions int64
	// Biased is the number of activations the adversary redirected.
	Biased int64
}

// Run executes rule on the histogram until one color holds everything or
// MaxTime elapses. counts is mutated in place to the final histogram.
func Run(counts []int64, rule Rule, cfg Config) (Result, error) {
	var rn Runner
	return rn.Run(counts, rule, cfg)
}

// Runner reuses the engine's small scratch buffers across runs so trial
// loops are allocation-free. Not safe for concurrent use.
type Runner struct {
	sampled []population.Color
	times   []float64
	hist    []int64
}

// Run is Runner's buffer-reusing equivalent of the package-level Run.
func (rn *Runner) Run(counts []int64, rule Rule, cfg Config) (Result, error) {
	if rule == nil {
		return Result{}, errors.New("occupancy: nil rule")
	}
	if ur, ok := rule.(Undecided); ok {
		return rn.runUndecided(counts, ur, cfg)
	}
	if cfg.Undecided != 0 {
		return Result{}, fmt.Errorf("occupancy: rule %s has no undecided state, but Undecided = %d", rule.Name(), cfg.Undecided)
	}
	return rn.exec(counts, rule, cfg, len(counts))
}

// runUndecided executes a rule with an undecided state: the k-color
// histogram gains one hidden bucket holding the undecided nodes, the run
// executes the histogram-convention rule on the extended histogram, and the
// opinion buckets are written back with the undecided count reported
// separately (winners and timeout pluralities never name the hidden
// bucket).
func (rn *Runner) runUndecided(counts []int64, ur Undecided, cfg Config) (Result, error) {
	if cfg.Undecided < 0 {
		return Result{}, fmt.Errorf("occupancy: Undecided = %d, want >= 0", cfg.Undecided)
	}
	var decided int64
	for _, v := range counts {
		decided += v
	}
	if decided <= 0 && cfg.Undecided > 0 {
		// All-undecided is an absorbing dead state: no node can ever seed
		// an opinion again, so the run could only burn its whole budget.
		return Result{}, errors.New("occupancy: undecided-state run needs at least one decided holder")
	}
	k := len(counts)
	if cap(rn.hist) < k+1 {
		rn.hist = make([]int64, k+1)
	}
	hist := rn.hist[:0]
	hist = append(hist, counts...)
	hist = append(hist, cfg.Undecided)
	res, err := rn.exec(hist, ur.UndecidedRule(k), cfg, k)
	copy(counts, hist[:k])
	res.Undecided = hist[k]
	if !res.Done {
		res.Winner = plurality(hist[:k])
	}
	return res, err
}

// exec is the engine core: counts may include hidden buckets beyond the
// colors opinion buckets (churn draws fresh opinions from the colors
// prefix only).
func (rn *Runner) exec(counts []int64, rule Rule, cfg Config, colors int) (Result, error) {
	n, err := validate(counts, rule, cfg)
	if err != nil {
		return Result{}, err
	}
	for c, v := range counts {
		if v == n {
			return Result{Done: true, Winner: population.Color(c)}, nil
		}
	}
	if !cfg.ForceTick && cfg.Churn == 0 && cfg.OnObserve == nil && cfg.Adversary == nil {
		if kr, ok := rule.(Kerneled); ok {
			switch s := cfg.Scheduler.(type) {
			case *sched.Sequential:
				if budget, ok := sequentialBudget(cfg.MaxTime, n); ok {
					return runLeap(counts, kr.OccupancyKernel(), cfg, n, budget, true)
				}
			case *sched.Poisson:
				if lambda := float64(n) * s.Rate() * cfg.MaxTime; lambda < maxLeapBudget {
					budget := cfg.Rand.PoissonInt64(lambda)
					return runLeap(counts, kr.OccupancyKernel(), cfg, n, budget, false)
				}
			}
		}
	}
	return rn.runTick(counts, rule, cfg, n, colors)
}

// maxLeapBudget bounds the tick budget leap mode will materialize as an
// int64 count. An effectively-unbounded MaxTime (n·rate·MaxTime beyond
// ~4.6e18 ticks) would overflow the counters, so such runs fall back to
// tick mode, which compares times instead of counting a budget — the same
// semantics the per-node engine has always had.
const maxLeapBudget = 1 << 62

func validate(counts []int64, rule Rule, cfg Config) (int64, error) {
	if rule == nil {
		return 0, errors.New("occupancy: nil rule")
	}
	if cfg.Scheduler == nil {
		return 0, errors.New("occupancy: nil scheduler")
	}
	if _, ok := cfg.Scheduler.(sched.TimeScheduler); !ok {
		return 0, fmt.Errorf("occupancy: scheduler %T has no NextTimes; use *sched.Sequential or *sched.Poisson", cfg.Scheduler)
	}
	if cfg.Rand == nil {
		return 0, errors.New("occupancy: nil rand")
	}
	if cfg.MaxTime <= 0 {
		return 0, fmt.Errorf("occupancy: MaxTime = %v, want > 0", cfg.MaxTime)
	}
	if cfg.Churn < 0 || cfg.Churn >= 1 {
		return 0, fmt.Errorf("occupancy: Churn = %v, want [0, 1)", cfg.Churn)
	}
	if rule.SampleCount() <= 0 {
		return 0, fmt.Errorf("occupancy: rule %s samples %d nodes, want > 0", rule.Name(), rule.SampleCount())
	}
	if len(counts) == 0 {
		return 0, errors.New("occupancy: empty histogram")
	}
	var n int64
	for c, v := range counts {
		if v < 0 {
			return 0, fmt.Errorf("occupancy: negative count %d for color %d", v, c)
		}
		n += v
	}
	if n < 2 {
		return 0, fmt.Errorf("occupancy: histogram total %d, want >= 2", n)
	}
	if int64(cfg.Scheduler.N()) != n {
		return 0, fmt.Errorf("occupancy: scheduler has %d nodes, histogram %d", cfg.Scheduler.N(), n)
	}
	if cfg.Adversary != nil && cfg.Adversary.Desc().PerNode {
		return 0, fmt.Errorf("occupancy: adversary %s needs node identity, which the count-collapsed engine does not track", cfg.Adversary.Desc().Name)
	}
	return n, nil
}

// plurality returns the index of the largest count (lowest index on ties),
// matching population.Population.Plurality.
func plurality(counts []int64) population.Color {
	best := 0
	for c := 1; c < len(counts); c++ {
		if counts[c] > counts[best] {
			best = c
		}
	}
	return population.Color(best)
}

// --- leap mode -----------------------------------------------------------

// sequentialBudget returns the number of sequential-model ticks whose time
// m/n lies inside the MaxTime budget, matching the per-node engines' "stop
// at the first tick with Time > MaxTime" rule bit for bit (the comparison
// is carried out in the same float64 arithmetic). ok is false when the
// budget would overflow the int64 tick counters (the caller then falls
// back to tick mode).
func sequentialBudget(maxTime float64, n int64) (budget int64, ok bool) {
	nf := float64(n)
	if maxTime*nf >= maxLeapBudget {
		return 0, false
	}
	m := int64(maxTime * nf)
	for m > 0 && float64(m)/nf > maxTime {
		m--
	}
	for float64(m+1)/nf <= maxTime {
		m++
	}
	return m + 1, true // ticks are indexed from 0
}

// leapTimeAt materializes the parallel time of the m-th delivered tick
// (1-based), given the total tick budget inside MaxTime. Sequential ticks
// sit on the deterministic grid (m−1)/n. Poisson ticks are the arrival
// times of a rate-n·rate process: conditioned on budget arrivals in
// [0, MaxTime] they are sorted uniforms, so the m-th is a Beta(m,
// budget−m+1) order statistic — one O(1) draw instead of m exponential
// gaps.
func leapTimeAt(r *rng.RNG, m, budget, n int64, maxTime float64, sequential bool) float64 {
	if m <= 0 {
		return 0
	}
	if sequential {
		return float64(m-1) / float64(n)
	}
	ga := r.GammaFloat64(float64(m))
	gb := r.GammaFloat64(float64(budget-m) + 1)
	return maxTime * (ga / (ga + gb))
}

// stopCheckStride is how many leap transitions (or non-batch ticks) pass
// between Stop polls: coarse enough that the poll never shows up in the hot
// loop, fine enough that cancellation lands within microseconds.
const stopCheckStride = 1024

// geometricSkip draws the index offset of the next effective activation
// when each activation is effective with probability p: Geometric(p) on
// 1, 2, …, and always 1 when p ≥ 1. ok is false when the skip runs past
// the remaining tick budget, including a skip of 1 with no tick left. The
// draw is computed in float64 so a microscopic p yields +Inf and lands in
// that branch instead of overflowing.
func geometricSkip(r *rng.RNG, p float64, remaining int64) (g int64, ok bool) {
	if p >= 1 {
		return 1, remaining >= 1
	}
	u := 1 - r.Float64() // (0, 1]
	gf := math.Floor(math.Log(u)/math.Log1p(-p)) + 1
	if !(gf >= 1) {
		gf = 1
	}
	if gf > float64(remaining) {
		return 0, false
	}
	g = int64(gf)
	return g, g <= remaining
}

// runLeap executes the jump chain of the occupancy process: per iteration
// one geometric skip over the no-op activations and one kernel-sampled
// histogram transition. counts is mutated in place.
func runLeap(counts []int64, kern Kernel, cfg Config, n, budget int64, sequential bool) (Result, error) {
	r := cfg.Rand
	var ticks int64
	var res Result
	stopCheck := 0
	for {
		if cfg.Stop != nil {
			if stopCheck--; stopCheck <= 0 {
				stopCheck = stopCheckStride
				if cfg.Stop() {
					res.Ticks = ticks
					res.Time = leapTimeAt(r, ticks, budget, n, cfg.MaxTime, sequential)
					res.Winner = plurality(counts)
					return res, ErrStopped
				}
			}
		}
		remaining := budget - ticks
		if remaining <= 0 {
			break
		}
		p := kern.EffectiveProb(counts, n, cfg.WithSelf)
		if !(p > 0) {
			// No transition can ever fire again (defensively guarded;
			// off-consensus histograms of the built-in kernels always
			// have p > 0): the rest of the budget is no-ops.
			break
		}
		g, ok := geometricSkip(r, p, remaining)
		if !ok {
			break
		}
		ticks += g
		from, to := kern.SampleTransition(r, counts, n, cfg.WithSelf)
		if from == to {
			continue
		}
		counts[from]--
		counts[to]++
		if counts[to] == n {
			res.Done = true
			res.Winner = population.Color(to)
			res.Ticks = ticks
			res.Time = leapTimeAt(r, ticks, budget, n, cfg.MaxTime, sequential)
			return res, nil
		}
	}
	res.Ticks = budget
	res.Time = leapTimeAt(r, budget, budget, n, cfg.MaxTime, sequential)
	res.Winner = plurality(counts)
	return res, ErrTimeLimit
}

// --- tick mode -----------------------------------------------------------

// tickRun is the per-activation count-collapsed engine state. k is the
// number of histogram buckets; colors is the number of opinion colors
// (fewer than k when a hidden undecided bucket is appended) — churn's
// fresh joiners draw their opinion from the colors prefix only.
type tickRun struct {
	counts   []int64
	n        int64
	k        int
	colors   int
	s        int
	withSelf bool
	churning bool
	churn    float64
	r        *rng.RNG
	rule     Rule
	adv      *adversary.Adversary
	sampled  []population.Color
	res      Result
	done     bool
	badNone  bool

	// Streaming observation (Config.OnObserve): the next parallel time a
	// snapshot is due, starting at 0 so the first delivered activation is
	// always observed. lastEmit dedupes the guaranteed final snapshot
	// against a periodic one that already covered the closing tick; -1
	// means nothing was emitted yet, so even a run that ends before its
	// first activation closes the stream.
	observing   bool
	nextObserve float64
	observeGap  float64
	lastEmit    int64 // initialized to -1
	onObserve   func(Snapshot)
}

// emit delivers one Snapshot of the current histogram.
func (tr *tickRun) emit(now float64, ticks int64) {
	var und int64
	for _, v := range tr.counts[tr.colors:] {
		und += v
	}
	tr.lastEmit = ticks
	tr.onObserve(Snapshot{Time: now, Ticks: ticks, Counts: tr.counts[:tr.colors], Undecided: und})
}

// maybeObserve emits a Snapshot when the current activation crossed the
// next observation instant.
func (tr *tickRun) maybeObserve(now float64, ticks int64) {
	if !tr.observing || now < tr.nextObserve {
		return
	}
	tr.emit(now, ticks)
	tr.nextObserve = now + tr.observeGap
}

// finalObserve closes the stream with a snapshot of the state the run ended
// in (consensus, timeout or stop), unless the closing tick was already
// observed.
func (tr *tickRun) finalObserve(now float64, ticks int64) {
	if !tr.observing || tr.lastEmit == ticks {
		return
	}
	tr.emit(now, ticks)
}

// pick draws a color from the cumulative histogram over total nodes,
// with one node of color deduct excluded (population.None excludes
// nothing); this is exactly the law of a uniform draw over the clique
// neighborhood.
func (tr *tickRun) pick(total int64, deduct population.Color) population.Color {
	x := int64(tr.r.Uint64n(uint64(total)))
	for c, v := range tr.counts {
		if population.Color(c) == deduct {
			v--
		}
		if x < v {
			return population.Color(c)
		}
		x -= v
	}
	return population.Color(tr.k - 1)
}

// corrupt applies one corruption window's flips to the histogram when the
// activation at time now crossed a window boundary: up to the budget moves
// from the plurality opinion to the weakest surviving one. The move is
// gap-capped, so it can never complete a consensus itself.
func (tr *tickRun) corrupt(now float64) {
	if !tr.adv.CorruptionDue(now) {
		return
	}
	from, to, x := tr.adv.PlanFlips(tr.counts[:tr.colors], now)
	if x <= 0 {
		return
	}
	tr.counts[from] -= x
	tr.counts[to] += x
	tr.adv.NoteCorruptions(x)
}

// step executes one activation on the histogram at parallel time now.
func (tr *tickRun) step(now float64) {
	if tr.adv != nil {
		tr.corrupt(now)
	}
	if tr.churning && tr.r.Bernoulli(tr.churn) {
		// Churn: the activated node (color ~ histogram) is replaced by a
		// fresh joiner with a uniformly random opinion.
		victim := tr.pick(tr.n, population.None)
		fresh := population.Color(tr.r.Intn(tr.colors))
		tr.res.Churns++
		if fresh != victim {
			tr.counts[victim]--
			tr.counts[fresh]++
			if tr.counts[fresh] == tr.n {
				tr.done = true
				tr.res.Winner = fresh
			}
		}
		return
	}
	var own population.Color
	biased := false
	if tr.adv != nil {
		// Scheduling bias: the adversary redirects this activation onto a
		// node holding its (possibly lagged) minority pick, provided the
		// opinion is still alive in the live histogram.
		if c, ok := tr.adv.BiasColor(tr.counts[:tr.colors], now); ok && tr.counts[c] > 0 {
			own = c
			biased = true
			tr.adv.NoteBias()
		}
	}
	if !biased {
		own = tr.pick(tr.n, population.None)
	}
	for i := 0; i < tr.s; i++ {
		if tr.withSelf {
			tr.sampled[i] = tr.pick(tr.n, population.None)
		} else {
			tr.sampled[i] = tr.pick(tr.n-1, own)
		}
		if tr.adv != nil {
			// Byzantine sampling: with probability budget/n the sampled
			// node lies, reporting the minority opinion instead.
			if lie, ok := tr.adv.Lie(tr.counts[:tr.colors], tr.n, now); ok {
				tr.sampled[i] = lie
			}
		}
	}
	next := tr.rule.Next(tr.r, own, tr.sampled)
	if next == population.None {
		// See Rule: only a rule with an undeclared undecided state emits
		// None here; mapping it to "keep" would silently diverge from the
		// per-node engines.
		tr.badNone = true
		return
	}
	if next != own {
		tr.counts[own]--
		tr.counts[next]++
		if tr.counts[next] == tr.n {
			tr.done = true
			tr.res.Winner = next
		}
	}
}

// badNoneErr reports a rule that returned population.None to the
// histogram engine — an undecided state it never declared via Undecided.
func badNoneErr(rule Rule) error {
	return fmt.Errorf("occupancy: rule %s returned population.None; rules with an undecided state must implement occupancy.Undecided", rule.Name())
}

// runTick executes the activation-by-activation engine, consuming tick
// times from the scheduler in batches.
func (rn *Runner) runTick(counts []int64, rule Rule, cfg Config, n int64, colors int) (Result, error) {
	s := rule.SampleCount()
	if cap(rn.sampled) < s {
		rn.sampled = make([]population.Color, s)
	}
	tr := tickRun{
		counts:     counts,
		n:          n,
		k:          len(counts),
		colors:     colors,
		s:          s,
		withSelf:   cfg.WithSelf,
		churning:   cfg.Churn > 0,
		churn:      cfg.Churn,
		r:          cfg.Rand,
		rule:       rule,
		adv:        cfg.Adversary,
		sampled:    rn.sampled[:s],
		observing:  cfg.OnObserve != nil,
		observeGap: cfg.ObserveInterval,
		lastEmit:   -1,
		onObserve:  cfg.OnObserve,
	}
	var (
		ticks int64
		last  float64
	)
	finish := func(err error) (Result, error) {
		tr.res.Ticks = ticks
		tr.res.Time = last
		if tr.adv != nil {
			// Adversary counters survive every exit path — consensus,
			// timeout and cancellation alike, matching Churns.
			tr.res.Corruptions = tr.adv.Corruptions()
			tr.res.Biased = tr.adv.Biased()
		}
		tr.finalObserve(last, ticks)
		if tr.done {
			tr.res.Done = true
			return tr.res, nil
		}
		tr.res.Winner = plurality(counts)
		return tr.res, err
	}

	sc := cfg.Scheduler.(sched.TimeScheduler) // validate checked
	if cap(rn.times) < sched.BatchSize {
		rn.times = make([]float64, sched.BatchSize)
	}
	buf := rn.times[:sched.BatchSize]
	for {
		if cfg.Stop != nil && cfg.Stop() {
			return finish(ErrStopped)
		}
		sc.NextTimes(buf)
		for _, now := range buf {
			if now > cfg.MaxTime {
				return finish(ErrTimeLimit)
			}
			ticks++
			last = now
			tr.step(now)
			if tr.badNone {
				return Result{}, badNoneErr(rule)
			}
			tr.maybeObserve(now, ticks)
			if tr.done {
				return finish(nil)
			}
		}
	}
}
