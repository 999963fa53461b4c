package occupancy

// The hybrid tau-leap/mean-field engine: the third simulation regime next
// to the exact jump chain (runLeap) and the per-activation tick mode. It
// trades exactness for scale — n = 10¹⁰–10¹² and beyond — by firing many
// transitions per step, switching between three regimes on the fly:
//
//   - exact: whenever any nonzero bucket is small (near absorption, a
//     freshly seeded undecided pool), the engine walks the jump chain of
//     the exact kernel, transition by transition with geometric skips —
//     the same law as the exact engine, so the endgame and other
//     small-count phases keep their full stochasticity.
//   - tau-leap: with all nonzero buckets of medium size, each step fires
//     every flow channel c→d as an independent Poisson(τ·F_cd) count, with
//     τ chosen so no bucket is expected to change by more than Eps of its
//     own mass (Cao–Gillespie style step control; negative excursions
//     reject the step and halve τ).
//   - ODE: once every nonzero bucket is so large that relative
//     fluctuations fall below ODETheta (1/√count ≤ θ), the histogram is
//     handed off to the internal/meanfield RK4 integrator and evolved
//     deterministically along the fluid limit dx_c/dτ = Σ_d (F_dc − F_cd)
//     until some bucket shrinks back into the stochastic band. Dynamics
//     whose drift vanishes (Voter's martingale) are detected as a stall
//     and stay in the tau-leap regime.
//
// Unlike the exact engine's Beta-order-statistic clock, the hybrid engine
// advances parallel time deterministically at the mean tick rate (g ticks
// take g/(n·rate) time): the added clock noise it discards is O(1/√ticks)
// of the elapsed time, far below the engine's own leaping error at every
// n the engine is meant for.

import (
	"errors"
	"fmt"
	"math"

	"plurality/internal/meanfield"
	"plurality/internal/population"
	"plurality/internal/rng"
	"plurality/internal/sched"
)

// Default error-budget knobs of the hybrid engine.
const (
	// DefaultLeapEps is the per-step relative-change budget of the
	// tau-leap regime: no bucket is expected to change by more than this
	// fraction of its own mass in one leap.
	DefaultLeapEps = 0.01
	// DefaultODETheta is the relative-fluctuation threshold of the
	// mean-field handoff: the ODE regime engages while every nonzero
	// bucket holds at least 1/θ² nodes (θ = 1e-4 ⇒ 10⁸ nodes).
	DefaultODETheta = 1e-4
	// DefaultExactCutoff is the bucket size below which the engine falls
	// back to the exact jump chain.
	DefaultExactCutoff = 1024
)

// LeapConfig carries the error-budget knobs of the hybrid engine. The zero
// value selects the defaults.
type LeapConfig struct {
	// Eps is the tau-leap relative-change budget per step, in (0, 0.5]
	// (0 = DefaultLeapEps). Smaller is more accurate and slower.
	Eps float64
	// ODETheta is the relative-fluctuation threshold of the ODE handoff
	// (0 = DefaultODETheta); a negative value disables the ODE regime
	// entirely, keeping the engine stochastic at every scale.
	ODETheta float64
	// ExactCutoff is the bucket size below which the exact jump chain
	// takes over (0 = DefaultExactCutoff; must be ≥ 2 otherwise).
	ExactCutoff int64
}

// Regime identifies one of the hybrid engine's execution regimes.
type Regime uint8

const (
	// RegimeExact is the exact jump chain (kernel transitions with
	// geometric skips).
	RegimeExact Regime = iota
	// RegimeLeap is the tau-leaping regime (Poisson channel counts).
	RegimeLeap
	// RegimeODE is the deterministic mean-field integration regime.
	RegimeODE
)

// String implements fmt.Stringer.
func (g Regime) String() string {
	switch g {
	case RegimeExact:
		return "exact"
	case RegimeLeap:
		return "leap"
	case RegimeODE:
		return "ode"
	default:
		return fmt.Sprintf("regime(%d)", uint8(g))
	}
}

// RegimeSwitch records one regime transition of a hybrid run, for
// diagnostics and for golden tests that pin where the regimes hand over.
type RegimeSwitch struct {
	// Ticks is the activation count at which the regime took over.
	Ticks int64
	// Time is the parallel time of the switch.
	Time float64
	// To is the regime entered.
	To Regime
}

// LeapResult extends Result with the hybrid engine's diagnostics.
type LeapResult struct {
	Result
	// LeapSteps is the number of committed tau-leap steps.
	LeapSteps int64
	// ExactTransitions is the number of exact jump-chain transitions.
	ExactTransitions int64
	// ODESteps is the number of committed RK4 steps.
	ODESteps int64
	// ODETime is the unit-rate parallel time covered by the ODE regime.
	ODETime float64
	// Switches lists the regime transitions in order, starting with the
	// initial regime at tick 0.
	Switches []RegimeSwitch
}

// RunLeap executes rule on the histogram with the hybrid
// tau-leap/mean-field engine until one color holds everything or MaxTime
// elapses. counts is mutated in place to the final histogram. The rule's
// kernel must implement FlowKernel; churn is not supported (use the exact
// engine), and the scheduler must be *sched.Sequential or *sched.Poisson
// (the engine consumes only its rate law). Config.OnObserve and
// Config.Stop work as in Run, with snapshots delivered at regime-step
// granularity.
func RunLeap(counts []int64, rule Rule, cfg Config, lc LeapConfig) (LeapResult, error) {
	var rn Runner
	return rn.RunLeap(counts, rule, cfg, lc)
}

// RunLeap is Runner's equivalent of the package-level RunLeap.
func (rn *Runner) RunLeap(counts []int64, rule Rule, cfg Config, lc LeapConfig) (LeapResult, error) {
	if rule == nil {
		return LeapResult{}, errors.New("occupancy: nil rule")
	}
	ur, undecided := rule.(Undecided)
	if !undecided {
		if cfg.Undecided != 0 {
			return LeapResult{}, fmt.Errorf("occupancy: rule %s has no undecided state, but Undecided = %d", rule.Name(), cfg.Undecided)
		}
		return rn.execLeapHybrid(counts, rule, cfg, len(counts), lc)
	}
	// Mirror runUndecided: one hidden bucket for the undecided holders.
	if cfg.Undecided < 0 {
		return LeapResult{}, fmt.Errorf("occupancy: Undecided = %d, want >= 0", cfg.Undecided)
	}
	var decided int64
	for _, v := range counts {
		decided += v
	}
	if decided <= 0 && cfg.Undecided > 0 {
		return LeapResult{}, errors.New("occupancy: undecided-state run needs at least one decided holder")
	}
	k := len(counts)
	if cap(rn.hist) < k+1 {
		rn.hist = make([]int64, k+1)
	}
	hist := rn.hist[:0]
	hist = append(hist, counts...)
	hist = append(hist, cfg.Undecided)
	res, err := rn.execLeapHybrid(hist, ur.UndecidedRule(k), cfg, k, lc)
	copy(counts, hist[:k])
	res.Undecided = hist[k]
	if !res.Done {
		res.Winner = plurality(hist[:k])
	}
	return res, err
}

// execLeapHybrid validates the configuration and runs the regime loop.
// counts may include hidden buckets beyond the colors opinion buckets.
func (rn *Runner) execLeapHybrid(counts []int64, rule Rule, cfg Config, colors int, lc LeapConfig) (LeapResult, error) {
	n, err := validate(counts, rule, cfg)
	if err != nil {
		return LeapResult{}, err
	}
	if cfg.Churn > 0 {
		return LeapResult{}, errors.New("occupancy: the leap engine does not support churn; use the exact engine")
	}
	var rate float64
	switch s := cfg.Scheduler.(type) {
	case *sched.Sequential:
		rate = 1
	case *sched.Poisson:
		rate = s.Rate()
	default:
		return LeapResult{}, fmt.Errorf("occupancy: the leap engine needs the Sequential or Poisson scheduler (an O(1) rate law), got %T", cfg.Scheduler)
	}
	kr, ok := rule.(Kerneled)
	if !ok {
		return LeapResult{}, fmt.Errorf("occupancy: rule %s has no occupancy kernel; the leap engine needs a FlowKernel", rule.Name())
	}
	fk, ok := kr.OccupancyKernel().(FlowKernel)
	if !ok {
		return LeapResult{}, fmt.Errorf("occupancy: rule %s's kernel exposes no flow law (occupancy.FlowKernel); the leap engine needs one", rule.Name())
	}
	eps := lc.Eps
	if eps == 0 {
		eps = DefaultLeapEps
	}
	if eps < 0 || eps > 0.5 || math.IsNaN(eps) {
		return LeapResult{}, fmt.Errorf("occupancy: leap Eps = %v, want (0, 0.5]", lc.Eps)
	}
	theta := lc.ODETheta
	if theta == 0 {
		theta = DefaultODETheta
	}
	if theta >= 1 || math.IsNaN(theta) {
		return LeapResult{}, fmt.Errorf("occupancy: leap ODETheta = %v, want < 1 (negative disables the ODE regime)", lc.ODETheta)
	}
	cutoff := lc.ExactCutoff
	if cutoff == 0 {
		cutoff = DefaultExactCutoff
	}
	if cutoff < 2 {
		return LeapResult{}, fmt.Errorf("occupancy: leap ExactCutoff = %d, want >= 2", lc.ExactCutoff)
	}
	tickRate := float64(n) * rate
	budgetF := cfg.MaxTime * tickRate
	if budgetF >= maxLeapBudget {
		return LeapResult{}, fmt.Errorf("occupancy: the leap engine's tick accounting cannot hold MaxTime = %v at n = %d (n·rate·MaxTime ≥ 2⁶²); reduce MaxTime", cfg.MaxTime, n)
	}
	for c, v := range counts {
		if v == n {
			return LeapResult{Result: Result{Done: true, Winner: population.Color(c)}}, nil
		}
	}
	k := len(counts)
	lr := &leapRun{
		counts:     counts,
		n:          n,
		k:          k,
		colors:     colors,
		withSelf:   cfg.WithSelf,
		r:          cfg.Rand,
		kern:       fk,
		eps:        eps,
		cutoff:     cutoff,
		odeOn:      theta > 0,
		tickRate:   tickRate,
		rate:       rate,
		budget:     int64(budgetF),
		stop:       cfg.Stop,
		x:          make([]float64, k),
		flows:      make([]float64, k*k),
		delta:      make([]int64, k),
		scratch:    make([]int64, k),
		observing:  cfg.OnObserve != nil,
		observeGap: cfg.ObserveInterval,
		lastEmit:   -1,
		onObserve:  cfg.OnObserve,
	}
	if lr.odeOn {
		lr.odeMinF = 1 / (theta * theta)
		if cf := float64(cutoff); lr.odeMinF < cf {
			lr.odeMinF = cf
		}
		lr.drift = meanfield.DriftFromFlows(k, fk.Flows)
	}
	return lr.run()
}

// leapRun is the per-run state of the hybrid engine.
type leapRun struct {
	counts   []int64
	n        int64
	k        int
	colors   int
	withSelf bool
	r        *rng.RNG
	kern     FlowKernel
	drift    meanfield.Drift

	eps     float64
	cutoff  int64
	odeOn   bool    // ODE regime enabled (and not stalled out)
	odeMinF float64 // min nonzero bucket count for the ODE regime

	tickRate float64 // ticks per unit of parallel time (n·rate)
	rate     float64 // per-node activation rate
	budget   int64   // total tick budget inside MaxTime
	ticks    int64
	stop     func() bool

	x       []float64 // fraction scratch
	flows   []float64 // k×k flow matrix scratch
	delta   []int64   // tau-leap per-bucket deltas
	scratch []int64   // ODE re-import staging

	res LeapResult

	observing   bool
	nextObserve float64
	observeGap  float64
	lastEmit    int64
	onObserve   func(Snapshot)
}

// exactChunkTransitions bounds one exact-regime chunk; the regime picker
// and the Stop hook run at chunk boundaries.
const exactChunkTransitions = 512

// minLeapTau is the smallest step the tau-leap regime accepts; anything
// finer is cheaper (and exacter) on the jump chain.
const minLeapTau = 16

// odeChunkTime bounds one ODE-regime chunk in unit-rate parallel time, so
// the Stop hook and the regime picker stay responsive even when the
// integrator could run to the time budget in one call.
const odeChunkTime = 256.0

// time is the parallel time implied by the deterministic mean tick rate.
func (lr *leapRun) time() float64 { return float64(lr.ticks) / lr.tickRate }

// run is the regime loop.
func (lr *leapRun) run() (LeapResult, error) {
	reg := lr.pickRegime()
	lr.note(reg)
	for {
		if lr.stop != nil && lr.stop() {
			return lr.finish(ErrStopped)
		}
		if lr.ticks >= lr.budget {
			return lr.finish(ErrTimeLimit)
		}
		var (
			done bool
			err  error
		)
		switch reg {
		case RegimeExact:
			done, err = lr.exactChunk()
		case RegimeLeap:
			done, err = lr.leapStep()
		default:
			done, err = lr.odeChunk()
		}
		if err != nil {
			return lr.finish(err)
		}
		if done {
			return lr.finishDone()
		}
		if next := lr.pickRegime(); next != reg {
			reg = next
			lr.note(reg)
		}
	}
}

// pickRegime selects the regime from the current bucket sizes: exact while
// any nonzero bucket is below the cutoff, ODE once every nonzero bucket is
// beyond the fluctuation threshold, tau-leap in between. Zero buckets are
// ignored — the flow laws keep them at zero (with the one exception of an
// undecided pool, which regrowing immediately re-triggers the exact
// regime via its small count).
func (lr *leapRun) pickRegime() Regime {
	var minC int64 = -1
	for _, v := range lr.counts {
		if v > 0 && (minC < 0 || v < minC) {
			minC = v
		}
	}
	if minC < lr.cutoff {
		return RegimeExact
	}
	if lr.odeOn && float64(minC) >= lr.odeMinF {
		return RegimeODE
	}
	return RegimeLeap
}

// note records a regime switch.
func (lr *leapRun) note(to Regime) {
	lr.res.Switches = append(lr.res.Switches, RegimeSwitch{Ticks: lr.ticks, Time: lr.time(), To: to})
}

// exactChunk walks up to exactChunkTransitions of the exact jump chain:
// per transition one geometric skip over the no-op activations and one
// kernel-sampled histogram move, with time advancing at the mean tick
// rate. Returns done on consensus; ErrTimeLimit when the skip runs past
// the tick budget.
func (lr *leapRun) exactChunk() (bool, error) {
	for i := 0; i < exactChunkTransitions; i++ {
		p := lr.kern.EffectiveProb(lr.counts, lr.n, lr.withSelf)
		if !(p > 0) {
			// No transition can ever fire again; the rest of the budget
			// is no-ops.
			lr.ticks = lr.budget
			return false, ErrTimeLimit
		}
		g, ok := geometricSkip(lr.r, p, lr.budget-lr.ticks)
		if !ok {
			lr.ticks = lr.budget
			return false, ErrTimeLimit
		}
		lr.ticks += g
		from, to := lr.kern.SampleTransition(lr.r, lr.counts, lr.n, lr.withSelf)
		lr.res.ExactTransitions++
		if from != to {
			lr.counts[from]--
			lr.counts[to]++
			if lr.counts[to] == lr.n {
				return true, nil
			}
		}
		lr.maybeObserve()
	}
	return false, nil
}

// leapStep commits one tau-leap: every flow channel c→d fires an
// independent Poisson(τ·F_cd) transition count, with τ chosen so no
// bucket's expected change exceeds Eps of its mass (at least one node). A
// draw that would drive a bucket negative is rejected wholesale and τ
// halved. Steps finer than minLeapTau run on the exact jump chain instead.
func (lr *leapRun) leapStep() (bool, error) {
	nf := float64(lr.n)
	for c, v := range lr.counts {
		lr.x[c] = float64(v) / nf
	}
	lr.kern.Flows(lr.x, lr.flows)
	k := lr.k
	tauF := math.Inf(1)
	for c := 0; c < k; c++ {
		var act float64 // per-tick probability mass touching bucket c
		for d := 0; d < k; d++ {
			if d == c {
				continue
			}
			act += lr.flows[c*k+d] + lr.flows[d*k+c]
		}
		if act <= 0 {
			continue
		}
		b := lr.eps * float64(lr.counts[c])
		if b < 1 {
			b = 1
		}
		if lim := b / act; lim < tauF {
			tauF = lim
		}
	}
	if math.IsInf(tauF, 1) {
		// No channel carries flow: the fluid limit is frozen, but the
		// finite-n chain may not be (O(1/n) corrections); let the exact
		// chain decide.
		return lr.exactChunk()
	}
	tau := int64(tauF)
	if tau < minLeapTau {
		return lr.exactChunk()
	}
	if remaining := lr.budget - lr.ticks; tau > remaining {
		tau = remaining
	}
	for {
		clear(lr.delta)
		for c := 0; c < k; c++ {
			for d := 0; d < k; d++ {
				f := lr.flows[c*k+d]
				if f <= 0 {
					continue
				}
				m := lr.r.PoissonInt64(float64(tau) * f)
				lr.delta[c] -= m
				lr.delta[d] += m
			}
		}
		ok := true
		for c := 0; c < k; c++ {
			if lr.counts[c]+lr.delta[c] < 0 {
				ok = false
				break
			}
		}
		if ok {
			break
		}
		tau /= 2
		if tau < minLeapTau {
			// The step budget is too tight for leaping at all; the exact
			// chain makes guaranteed progress.
			return lr.exactChunk()
		}
	}
	for c := 0; c < k; c++ {
		lr.counts[c] += lr.delta[c]
	}
	lr.ticks += tau
	lr.res.LeapSteps++
	for c := 0; c < k; c++ {
		if lr.counts[c] == lr.n {
			return true, nil
		}
	}
	lr.maybeObserve()
	return false, nil
}

// odeChunk hands the histogram off to the mean-field integrator: export to
// fractions, integrate the flow-law drift until a bucket shrinks back into
// the stochastic band (or the chunk/time budget ends), and re-import with
// largest-remainder rounding. A stalled integration (vanishing drift — the
// Voter martingale) disables the ODE regime for the rest of the run.
func (lr *leapRun) odeChunk() (bool, error) {
	nf := float64(lr.n)
	for c, v := range lr.counts {
		lr.x[c] = float64(v) / nf
	}
	st := meanfield.State{X: lr.x}
	maxT := odeChunkTime
	if remT := float64(lr.budget-lr.ticks) / nf; remT < maxT {
		maxT = remT
	}
	if lr.observing && lr.observeGap > 0 {
		if g := lr.observeGap * lr.rate; g < maxT {
			maxT = g
		}
	}
	res, err := meanfield.Integrate(lr.drift, &st, maxT, meanfield.IntegrateConfig{
		Stop: func(x []float64) bool {
			for _, f := range x {
				if f > 0 && f*nf < lr.odeMinF {
					return true
				}
			}
			return false
		},
	})
	if err != nil {
		return false, fmt.Errorf("occupancy: mean-field handoff failed: %w", err)
	}
	if res.Stalled && res.Steps == 0 {
		// A drift-free dynamic (Voter) cannot make deterministic
		// progress; stay stochastic for the rest of the run.
		lr.odeOn = false
		return false, nil
	}
	if err := st.Counts(lr.n, lr.scratch); err != nil {
		return false, fmt.Errorf("occupancy: mean-field handoff failed: %w", err)
	}
	copy(lr.counts, lr.scratch)
	adv := int64(st.T*nf + 0.5)
	if lr.ticks+adv > lr.budget {
		adv = lr.budget - lr.ticks
	}
	lr.ticks += adv
	lr.res.ODESteps += int64(res.Steps)
	lr.res.ODETime += st.T
	if res.Stalled {
		lr.odeOn = false
	}
	for c := 0; c < lr.k; c++ {
		if lr.counts[c] == lr.n {
			return true, nil
		}
	}
	lr.maybeObserve()
	return false, nil
}

// emit delivers one Snapshot of the current histogram (hidden buckets
// folded into Undecided).
func (lr *leapRun) emit() {
	var und int64
	for _, v := range lr.counts[lr.colors:] {
		und += v
	}
	lr.lastEmit = lr.ticks
	lr.onObserve(Snapshot{Time: lr.time(), Ticks: lr.ticks, Counts: lr.counts[:lr.colors], Undecided: und})
}

// maybeObserve emits a Snapshot when the run crossed the next observation
// instant. Leap and ODE steps cover many activations, so observation lands
// at step granularity rather than on the exact instant.
func (lr *leapRun) maybeObserve() {
	if !lr.observing {
		return
	}
	if now := lr.time(); now >= lr.nextObserve {
		lr.emit()
		lr.nextObserve = now + lr.observeGap
	}
}

// finish closes a run that ended without consensus (timeout, stop).
func (lr *leapRun) finish(err error) (LeapResult, error) {
	lr.res.Ticks = lr.ticks
	lr.res.Time = lr.time()
	lr.res.Winner = plurality(lr.counts)
	if lr.observing && lr.lastEmit != lr.ticks {
		lr.emit()
	}
	return lr.res, err
}

// finishDone closes a run that reached consensus.
func (lr *leapRun) finishDone() (LeapResult, error) {
	lr.res.Ticks = lr.ticks
	lr.res.Time = lr.time()
	lr.res.Done = true
	for c, v := range lr.counts {
		if v == lr.n {
			lr.res.Winner = population.Color(c)
		}
	}
	if lr.observing && lr.lastEmit != lr.ticks {
		lr.emit()
	}
	return lr.res, nil
}

// Leapable reports whether rule can run on the hybrid leap engine: its
// kernel (after the hidden-bucket conversion for rules with an undecided
// state over k opinion colors) implements FlowKernel.
func Leapable(rule Rule, k int) bool {
	if ur, ok := rule.(Undecided); ok {
		rule = ur.UndecidedRule(k)
	}
	kr, ok := rule.(Kerneled)
	if !ok {
		return false
	}
	_, ok = kr.OccupancyKernel().(FlowKernel)
	return ok
}
