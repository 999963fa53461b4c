package core

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"plurality/internal/adversary"
	"plurality/internal/graph"
	"plurality/internal/population"
	"plurality/internal/sched"
)

// Per-node protocol flags, packed into one byte per node so the hot loop
// touches a single n-byte array instead of three n-byte bool slices.
const (
	// flagBit is the OneExtraBit memory bit.
	flagBit uint8 = 1 << iota
	// flagHalted marks a node that finished part 2.
	flagHalted
	// flagCrashed marks a failure-injected node that never acts.
	flagCrashed
)

// Part-1 instructions, one per in-phase offset of the schedule
// (state.actions).
const (
	// actWait is do-nothing padding (tactical waiting).
	actWait uint8 = iota
	actTwoChoices
	actCommit
	actPropagate
	actGadgetSample
	actJump
)

// maxTimeInt32Safe bounds Config.MaxTime so per-node tick counters fit in
// int32: real time counts ticks performed, which concentrates around
// MaxTime per node (rate-1 clocks), so a 2^30 budget leaves a 2x margin
// below math.MaxInt32 that no realistic Poisson fluctuation crosses.
const maxTimeInt32Safe = 1 << 30

// Run executes the asynchronous plurality-consensus protocol on pop until
// all live nodes agree, every node halts, or cfg.MaxTime elapses. The
// population is mutated in place.
func Run(pop *population.Population, cfg Config) (Result, error) {
	return NewRunner().Run(pop, cfg)
}

// Runner executes protocol runs while reusing all per-run state buffers
// (about seven O(n) slices) across calls, so trial loops — in particular
// the parallel sweeps in internal/par — stop paying an allocation-and-zero
// cost per trial. A Runner is not safe for concurrent use; parallel drivers
// keep one per worker.
type Runner struct {
	st state
}

// NewRunner returns an empty Runner; buffers are grown on first use.
func NewRunner() *Runner { return &Runner{} }

// Run is Runner's buffer-reusing equivalent of the package-level Run. For a
// fixed seed the result is bit-identical to a fresh run: buffer reuse only
// changes where the state lives, never what the protocol draws.
func (rn *Runner) Run(pop *population.Population, cfg Config) (Result, error) {
	if err := validate(pop, cfg); err != nil {
		return Result{}, err
	}
	spec, err := Plan(cfg, pop.N())
	if err != nil {
		return Result{}, err
	}
	st := &rn.st
	if err := st.reset(pop, cfg, spec); err != nil {
		return Result{}, err
	}

	last := st.run()
	st.res.Time = last.Time
	st.res.Ticks = last.Seq + 1
	if st.interruptSeq >= 0 {
		// The tick the stop poll fired on never applied.
		st.res.Ticks = st.interruptSeq
	}
	st.res.EndgameSafe = st.res.Done &&
		(st.res.FirstHaltTime == 0 || st.res.ConsensusTime <= st.res.FirstHaltTime)
	if cfg.OnObserve != nil {
		// Close the observation stream with the state the run ended in
		// (the per-tick observations fire at tick start, so the final
		// state is otherwise never seen).
		cfg.OnObserve(st.res.Time, st.res.Ticks)
	}
	if adv := cfg.Adversary; adv != nil {
		st.res.Corruptions = adv.Corruptions()
		st.res.Biased = adv.Biased()
	}
	if st.stopped {
		if !st.res.Done {
			st.res.Winner = pop.Plurality()
		}
		return st.res, fmt.Errorf("core: run stopped at time %v: %w", st.res.Time, ErrStopped)
	}
	if !st.res.Done {
		// Either every live node halted without agreement, at the last
		// delivered tick, or the time budget ran out; both are protocol
		// failures.
		st.res.Winner = pop.Plurality()
		if st.haltedCount == int(st.liveN) {
			return st.res, fmt.Errorf("%w, the last at time %v", ErrAllHalted, st.res.Time)
		}
		return st.res, fmt.Errorf("%w (budget %v)", ErrNoConsensus, cfg.MaxTime)
	}
	return st.res, nil
}

func validate(pop *population.Population, cfg Config) error {
	switch {
	case pop == nil:
		return errors.New("core: nil population")
	case cfg.Graph == nil:
		return errors.New("core: nil graph")
	case cfg.Scheduler == nil:
		return errors.New("core: nil scheduler")
	case cfg.Rand == nil:
		return errors.New("core: nil rand")
	case cfg.Graph.N() != pop.N():
		return fmt.Errorf("core: graph has %d nodes, population %d", cfg.Graph.N(), pop.N())
	case cfg.Scheduler.N() != pop.N():
		return fmt.Errorf("core: scheduler has %d nodes, population %d", cfg.Scheduler.N(), pop.N())
	}
	if err := cfg.Check(); err != nil {
		return err
	}
	if adv := cfg.Adversary; adv != nil && adv.Family() == adversary.FamilyByzantine {
		return fmt.Errorf("core: the %s adversary has no lying channel here — protocol samples carry bits and real times alongside colors; use the generic rule engines for Byzantine sampling", adv.Desc().Name)
	}
	if cfg.CrashFraction > 0 {
		// Crashed nodes stay visible to sampling, which matches the
		// paper's model on the clique where every sample is one of n-1
		// interchangeable nodes. On a sparse topology the same rule can
		// leave a live node whose entire neighborhood crashed with no way
		// to ever change opinion, deadlocking the run with no error.
		// Reject the combination instead of silently sampling the dead.
		if _, ok := cfg.Graph.(graph.Complete); !ok {
			return fmt.Errorf("core: CrashFraction = %v requires the complete graph, got %T (crashed nodes remain sampled; a sparse neighborhood of crashed nodes would deadlock)", cfg.CrashFraction, cfg.Graph)
		}
	}
	return nil
}

// Check reports the first of cfg's numeric settings that is out of range:
// the checks of Run that need no population, graph, scheduler or
// generator. The negated comparisons reject NaN too.
func (cfg Config) Check() error {
	switch {
	case !(cfg.MaxTime > 0):
		return fmt.Errorf("core: MaxTime = %v, want > 0", cfg.MaxTime)
	case cfg.MaxTime > maxTimeInt32Safe:
		return fmt.Errorf("core: MaxTime = %v exceeds %d, the bound that keeps per-node tick counters in int32", cfg.MaxTime, int64(maxTimeInt32Safe))
	case !(cfg.CrashFraction >= 0 && cfg.CrashFraction < 1):
		return fmt.Errorf("core: CrashFraction = %v, want [0, 1)", cfg.CrashFraction)
	case !(cfg.ChurnRate >= 0 && cfg.ChurnRate < 1):
		return fmt.Errorf("core: ChurnRate = %v, want [0, 1)", cfg.ChurnRate)
	case !(cfg.DesyncFraction >= 0 && cfg.DesyncFraction < 1):
		return fmt.Errorf("core: DesyncFraction = %v, want [0, 1)", cfg.DesyncFraction)
	case cfg.DesyncFraction > 0 && cfg.DesyncSpread <= 0:
		return fmt.Errorf("core: DesyncFraction set but DesyncSpread = %d", cfg.DesyncSpread)
	case cfg.DesyncSpread > math.MaxInt32:
		return fmt.Errorf("core: DesyncSpread = %d does not fit the int32 working-time representation", cfg.DesyncSpread)
	case math.IsNaN(cfg.ProbeInterval):
		return errors.New("core: ProbeInterval is NaN")
	}
	return nil
}

// state is the mutable execution state of one run.
type state struct {
	cfg  Config
	spec Spec
	pop  *population.Population
	res  Result

	n int

	// cliqueN > 0 marks cfg.Graph as graph.Complete over cliqueN nodes;
	// the hot loop then samples neighbors with direct RNG calls instead of
	// dispatching through the Graph interface. The draws are identical to
	// Complete.Sample's, so results do not depend on the devirtualization.
	cliqueN    int
	cliqueSelf bool

	// actions[pos] is the part-1 instruction at in-phase offset pos, one
	// entry per tick of a phase, built once per run from the spec.
	actions []uint8
	// phaseRecip is len(actions)'s fastmod reciprocal, which turns a
	// working time into its in-phase offset without a division.
	phaseRecip uint64

	// Per-node protocol state. Working and real time are int32: the
	// schedule is O(log n) ticks (bound-checked in Plan) and real time is
	// bounded by MaxTime (bound-checked in validate), so 32 bits halve the
	// cache traffic of the former int64 representation.
	working      []int32            // schedule position
	real         []int32            // total ticks performed
	intermediate []population.Color // two-choices intermediate color
	flags        []uint8            // flagBit | flagHalted | flagCrashed
	busyUntil    []float64          // §4 delays: blocked until this time

	// Sync Gadget sample stores: samples[u*L+i] holds the i-th collected
	// real-time delta (sampled node's real time minus own real time at
	// collection), kept current implicitly because both sides advance by
	// one per own tick.
	samples     []int32
	sampleCount []int32
	medianBuf   []int32

	// Consensus bookkeeping over live (non-crashed) nodes.
	liveN      int64
	liveCounts []int64

	haltedCount int
	delaying    bool
	crashing    bool

	// Stop-hook state: stopCheck counts ticks down to the next poll,
	// stopped records that the hook fired, and interruptSeq (-1 when
	// unset) the Seq of the tick the hook fired on — that tick never
	// applied, so Result.Ticks reports the activations delivered before
	// it.
	stopCheck    int
	stopped      bool
	interruptSeq int64

	nextProbe   float64
	nextObserve float64
	probeBuf    []int32
	tickBuf     []sched.Tick
	feed        sched.Feed
}

// grow returns buf resized to n and zeroed, reusing its backing array when
// the capacity suffices.
func grow[T int32 | uint8 | int64 | float64 | population.Color | sched.Tick](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// reset prepares the state for one run, reusing buffers from any previous
// run on the same Runner.
func (st *state) reset(pop *population.Population, cfg Config, spec Spec) error {
	n := pop.N()
	st.cfg = cfg
	st.spec = spec
	st.pop = pop
	st.res = Result{}
	st.n = n
	st.haltedCount = 0
	st.delaying = false
	st.crashing = cfg.CrashFraction > 0

	st.cliqueN = 0
	if g, ok := cfg.Graph.(graph.Complete); ok {
		st.cliqueN = g.Nodes
		st.cliqueSelf = g.WithSelf
	}

	st.working = grow(st.working, n)
	st.real = grow(st.real, n)
	st.intermediate = grow(st.intermediate, n)
	st.flags = grow(st.flags, n)
	st.samples = grow(st.samples, n*spec.GadgetSamples)
	st.sampleCount = grow(st.sampleCount, n)
	st.medianBuf = grow(st.medianBuf, spec.GadgetSamples)
	st.actions = buildActions(st.actions, spec, cfg.DisableSyncGadget)
	st.phaseRecip = fastmodRecip(uint32(len(st.actions)))
	st.liveCounts = grow(st.liveCounts, pop.K())
	for u := range st.intermediate {
		st.intermediate[u] = population.None
	}

	if _, instant := cfg.Delay.(sched.ZeroDelay); cfg.Delay != nil && !instant {
		st.delaying = true
	}
	if cfg.Latency != nil {
		st.delaying = true
	}
	if st.delaying {
		st.busyUntil = grow(st.busyUntil, n)
	}

	if st.crashing {
		// Crash a deterministic random subset of the requested size.
		target := int(cfg.CrashFraction * float64(n))
		perm := cfg.Rand.Perm(n)
		for i := 0; i < target; i++ {
			st.flags[perm[i]] |= flagCrashed
		}
	}
	st.liveN = 0
	for u := 0; u < n; u++ {
		if st.flags[u]&flagCrashed != 0 {
			continue
		}
		st.liveN++
		st.liveCounts[pop.ColorOf(u)]++
	}
	if st.liveN == 0 {
		return errors.New("core: all nodes crashed")
	}

	if cfg.DesyncFraction > 0 {
		target := int(cfg.DesyncFraction * float64(n))
		// At small n (< 20 for the common 5–10% fractions) the requested
		// fraction can round down to zero nodes; honor the option by
		// desynchronizing at least one node.
		if target == 0 {
			target = 1
		}
		perm := cfg.Rand.Perm(n)
		for i := 0; i < target; i++ {
			u := perm[i]
			w := int32(cfg.Rand.Intn(cfg.DesyncSpread))
			st.working[u] = w
			st.real[u] = w
		}
	}

	// An initially unanimous (live) population is already done.
	for c, cnt := range st.liveCounts {
		if cnt == st.liveN {
			st.res.Done = true
			st.res.Winner = population.Color(c)
		}
	}

	if cfg.Adversary != nil {
		cfg.Adversary.InitVictims(n)
	}

	st.nextProbe = 0
	if cfg.ProbeInterval < 0 {
		st.nextProbe = -1
	}
	st.nextObserve = 0
	st.stopCheck = 0
	st.stopped = false
	st.interruptSeq = -1
	return nil
}

// buildActions fills the part-1 action table for spec into buf, reusing its
// backing array. Instructions are written in reverse order of precedence,
// so where two offsets could coincide the one the schedule lists first
// wins.
func buildActions(buf []uint8, spec Spec, noGadget bool) []uint8 {
	buf = grow(buf, spec.PhaseTicks) // every offset starts as actWait
	if !noGadget {
		buf[spec.JumpOffset] = actJump
		for pos := spec.GadgetStart; pos < spec.GadgetStart+spec.GadgetSamples; pos++ {
			buf[pos] = actGadgetSample
		}
	}
	for pos := spec.BPStart; pos < spec.BPEnd; pos++ {
		buf[pos] = actPropagate
	}
	buf[spec.CommitOffset] = actCommit
	buf[0] = actTwoChoices
	return buf
}

// fastmodRecip returns the reciprocal fastmod takes for divisor d > 0.
func fastmodRecip(d uint32) uint64 { return ^uint64(0)/uint64(d) + 1 }

// fastmod returns w mod d, given recip = fastmodRecip(d): Lemire, Kaser
// and Kurz's direct remainder ("Faster Remainder by Direct Computation",
// 2019), two multiplications that are exact for every 32-bit w and d.
func fastmod(w uint32, recip uint64, d uint32) uint32 {
	hi, _ := bits.Mul64(recip*uint64(w), uint64(d))
	return uint32(hi)
}

// sample returns a uniformly random neighbor of u. On the clique it issues
// the RNG draws directly (the same draws Complete.Sample makes), removing
// the per-call interface dispatch from the hot path.
func (st *state) sample(u int) int {
	if st.cliqueN > 0 {
		if st.cliqueSelf {
			return st.cfg.Rand.Intn(st.cliqueN)
		}
		return st.cfg.Rand.IntnExcept(st.cliqueN, u)
	}
	return st.cfg.Graph.Sample(st.cfg.Rand, u)
}

// adopt switches node u to color c, maintaining live-node consensus
// bookkeeping. u must be live.
func (st *state) adopt(u int, c population.Color, now float64) {
	old := st.pop.ColorOf(u)
	if old == c {
		return
	}
	st.pop.SetColor(u, c)
	st.liveCounts[old]--
	st.liveCounts[c]++
	if st.liveCounts[c] == st.liveN && !st.res.Done {
		st.res.Done = true
		st.res.Winner = c
		st.res.ConsensusTime = now
	}
}

// block applies response blocking after a communicating step that
// contacted node v: the §4 per-step delay plus the per-edge latency of the
// Bankhamer et al. extension, composed additively when both are set.
func (st *state) block(u, v int, now float64) {
	if !st.delaying {
		return
	}
	var d float64
	if st.cfg.Latency != nil {
		// A negative draw counts as 0 (the LatencyModel contract), so it
		// cannot cancel out the §4 delay added below.
		if l := st.cfg.Latency.SampleLatency(st.cfg.Rand, u, v); l > 0 {
			d = l
		}
	}
	if st.cfg.Delay != nil {
		d += st.cfg.Delay.SampleDelay(st.cfg.Rand)
	}
	if d > 0 {
		st.busyUntil[u] = now + d
	}
}

// block2 is block for a step that contacted two nodes: the node waits for
// the slower of the two edge responses (plus the per-step delay).
func (st *state) block2(u, v1, v2 int, now float64) {
	if !st.delaying {
		return
	}
	var d float64
	if st.cfg.Latency != nil {
		d = sched.MaxLatency(st.cfg.Latency, st.cfg.Rand, u, v1, v2)
	}
	if st.cfg.Delay != nil {
		d += st.cfg.Delay.SampleDelay(st.cfg.Rand)
	}
	if d > 0 {
		st.busyUntil[u] = now + d
	}
}

// run drives the scheduler until the protocol reports completion or
// MaxTime elapses, returning the last delivered tick, or Tick{Seq: -1} as
// sched.RunBatch does when none is. When the scheduler supports batch
// delivery it pulls ticks in chunks and — in the common no-delay, no-probe
// case — dispatches them through a specialized loop with no per-tick
// closure or interface call; the general per-tick path is kept for delay
// models and probing. Both paths consume the protocol RNG
// identically, so results for a fixed seed do not depend on which one runs.
// On the clique the specialized loop's feed may draw the ticks ahead on a
// second goroutine, which changes no draw either.
func (st *state) run() sched.Tick {
	bs, ok := st.cfg.Scheduler.(sched.BatchScheduler)
	if !ok {
		last, _ := sched.RunUntil(st.cfg.Scheduler, st.cfg.MaxTime, st.tick)
		return last
	}
	probing := st.nextProbe >= 0 && st.cfg.OnProbe != nil
	if st.delaying || probing || st.cfg.OnObserve != nil {
		st.tickBuf = grow(st.tickBuf, sched.BatchSize)
		last, _ := sched.RunBatch(st.cfg.Scheduler, st.cfg.MaxTime, st.tickBuf, st.tick)
		return last
	}
	last := sched.Tick{Seq: -1}
	maxTime := st.cfg.MaxTime
	st.feed.Start(bs, st.cfg.Rand, st.cliqueN > 0)
	defer st.feed.Close()
	for {
		if st.cfg.Stop != nil && st.cfg.Stop() {
			st.stopped = true
			return last
		}
		for _, t := range st.feed.Next() {
			if t.Time > maxTime {
				return last
			}
			last = t
			if !st.tickFast(t.Node, t.Time) {
				return last
			}
		}
	}
}

// stopCheckStride is how many ticks pass between Stop polls on the general
// (per-tick) run path.
const stopCheckStride = 1024

// tick handles one scheduler activation. It returns false once the run can
// stop: consensus reached, or every live node has halted.
func (st *state) tick(t sched.Tick) bool {
	if st.cfg.Stop != nil {
		if st.stopCheck--; st.stopCheck <= 0 {
			st.stopCheck = stopCheckStride
			if st.cfg.Stop() {
				st.stopped = true
				st.interruptSeq = t.Seq
				return false
			}
		}
	}
	if st.nextProbe >= 0 && t.Time >= st.nextProbe && st.cfg.OnProbe != nil {
		st.probe(t.Time)
	}
	if st.cfg.OnObserve != nil && t.Time >= st.nextObserve {
		// Observed at tick start, before this activation applies: the
		// population reflects exactly t.Seq completed activations, so that
		// is the reported tick count (and the end-of-run observation in
		// Run, labeled with the full count, can never collide with it).
		st.cfg.OnObserve(t.Time, t.Seq)
		st.nextObserve = t.Time + st.cfg.ObserveInterval
	}

	u := t.Node
	if st.delaying && st.flags[u]&(flagHalted|flagCrashed) == 0 && t.Time < st.busyUntil[u] {
		// Waiting for a response: the clock ticked but no protocol work
		// is performed. Real time deliberately does not advance either —
		// it counts ticks *performed*, so that under the §4 delay
		// extension real time stays proportional to schedule progress
		// and the Sync Gadget's real-time median remains a valid jump
		// target for working time.
		return st.keepGoing()
	}
	return st.tickFast(u, t.Time)
}

// tickFast is the delay- and probe-free activation body shared by both run
// paths.
func (st *state) tickFast(u int, now float64) bool {
	if st.cfg.Adversary != nil {
		if u = st.adversaryTick(u, now); u < 0 {
			// The delay-set suppressed the activation.
			return st.keepGoing()
		}
	}
	if st.flags[u]&(flagHalted|flagCrashed) != 0 {
		return st.keepGoing()
	}
	if st.cfg.ChurnRate > 0 && st.cfg.Rand.Bernoulli(st.cfg.ChurnRate) {
		st.churn(u, now)
		return st.keepGoing()
	}
	st.real[u]++

	w := st.working[u]
	st.working[u] = w + 1

	if int(w) >= st.spec.Part1Ticks {
		st.endgameTick(u, w, now)
		return st.keepGoing()
	}
	st.part1Tick(u, w, now)
	return st.keepGoing()
}

// adversaryTick applies the adversary's per-activation powers: corruption
// windows first, then the scheduling families — delay-set suppression
// (returns -1: the tick is spent idle) or bias redirection onto a node
// holding the adversary's target opinion. Untouchable (halted or crashed)
// nodes are never redirect targets or corruption victims: they no longer
// execute the protocol, so flipping them could make consensus unreachable
// in a way the corruption model does not intend.
func (st *state) adversaryTick(u int, now float64) int {
	adv := st.cfg.Adversary
	st.corruptTick(now)
	if adv.Victim(u) {
		adv.NoteBias()
		return -1
	}
	if c, ok := adv.BiasColor(st.pop.CountsView(), now); ok {
		if v, found := adv.FindHolder(st.pop, c, st.untouchable); found {
			u = v
			adv.NoteBias()
		}
	}
	return u
}

// corruptTick materializes one corruption window (if due) through adopt, so
// live-node consensus bookkeeping stays exact.
func (st *state) corruptTick(now float64) {
	adv := st.cfg.Adversary
	if !adv.CorruptionDue(now) {
		return
	}
	from, to, x := adv.PlanFlips(st.pop.CountsView(), now)
	if x <= 0 {
		return
	}
	var done int64
	for i := int64(0); i < x; i++ {
		v, ok := adv.FindHolder(st.pop, from, st.untouchable)
		if !ok {
			break
		}
		st.adopt(v, to, now)
		done++
	}
	adv.NoteCorruptions(done)
}

// untouchable reports whether node u is off-limits to the adversary: halted
// and crashed nodes no longer execute the protocol.
func (st *state) untouchable(u int) bool {
	return st.flags[u]&(flagHalted|flagCrashed) != 0
}

func (st *state) keepGoing() bool {
	if st.res.Done && !st.cfg.RunToHalt {
		return false
	}
	return st.haltedCount < int(st.liveN)
}

// part1Tick executes the schedule instruction at working time w (< Part1Ticks).
// Working times are never negative, so the 32-bit remainder is the in-phase
// offset.
func (st *state) part1Tick(u int, w int32, now float64) {
	switch st.actions[fastmod(uint32(w), st.phaseRecip, uint32(len(st.actions)))] {
	case actTwoChoices:
		// Two-Choices step: sample two nodes with replacement.
		va := st.sample(u)
		vb := st.sample(u)
		if a := st.pop.ColorOf(va); a == st.pop.ColorOf(vb) {
			st.intermediate[u] = a
		} else {
			st.intermediate[u] = population.None
		}
		st.block2(u, va, vb, now)

	case actCommit:
		// Commit step: adopt the intermediate color; the bit records
		// whether the node executed the adopt action.
		if c := st.intermediate[u]; c != population.None {
			st.adopt(u, c, now)
			st.flags[u] |= flagBit
		} else {
			st.flags[u] &^= flagBit
		}
		st.intermediate[u] = population.None

	case actPropagate:
		// Bit-Propagation: bitless nodes pull until they hit a bit.
		if st.flags[u]&flagBit == 0 {
			v := st.sample(u)
			if st.flags[v]&flagBit != 0 {
				st.adopt(u, st.pop.ColorOf(v), now)
				st.flags[u] |= flagBit
			}
			st.block(u, v, now)
		}

	case actGadgetSample:
		// Sync Gadget sampling: collect the neighbor's real time as a
		// delta against our own; the delta stays current as both real
		// times advance at rate one per own tick.
		v := st.sample(u)
		if cnt := st.sampleCount[u]; int(cnt) < st.spec.GadgetSamples {
			st.samples[u*st.spec.GadgetSamples+int(cnt)] = st.real[v] - st.real[u]
			st.sampleCount[u] = cnt + 1
		}
		st.block(u, v, now)

	case actJump:
		st.jump(u, w)
	}
	// actWait is do-nothing padding (tactical waiting).
}

// jump executes the Sync Gadget jump step: working time becomes the median
// of the collected real-time samples, brought current by adding the node's
// own real time.
func (st *state) jump(u int, w int32) {
	cnt := int(st.sampleCount[u])
	if cnt == 0 {
		return
	}
	buf := st.medianBuf[:cnt]
	copy(buf, st.samples[u*st.spec.GadgetSamples:u*st.spec.GadgetSamples+cnt])
	h := cnt / 2
	selectKth(buf, h)
	median := int64(buf[h])
	if cnt%2 == 0 {
		// buf[:h] now holds the h smallest samples, so its maximum is the
		// lower middle one.
		median = (int64(slices.Max(buf[:h])) + median) / 2
	}
	target := median + int64(st.real[u])
	if target < 0 {
		target = 0
	}
	adj := target - int64(w+1)
	if adj < 0 {
		adj = -adj
	}
	if adj > st.res.MaxJumpAdjustment {
		st.res.MaxJumpAdjustment = adj
	}
	st.working[u] = int32(target)
	st.sampleCount[u] = 0
	st.res.Jumps++
}

// selectKth reorders buf so that buf[k] holds the value sorting would put
// there, with no larger value before it and no smaller one after it
// (Hoare's selection, the middle element as pivot). It draws nothing.
func selectKth(buf []int32, k int) {
	lo, hi := 0, len(buf)-1
	for lo < hi {
		p := buf[lo+(hi-lo)/2]
		i, j := lo, hi
		for i <= j {
			for buf[i] < p {
				i++
			}
			for buf[j] > p {
				j--
			}
			if i <= j {
				buf[i], buf[j] = buf[j], buf[i]
				i++
				j--
			}
		}
		// buf[lo..j] <= p <= buf[i..hi], and anything between equals p.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return
		}
	}
}

// endgameTick executes part 2: asynchronous Two-Choices with immediate
// adoption, then halt after the per-node budget.
func (st *state) endgameTick(u int, w int32, now float64) {
	e := int(w) - st.spec.Part1Ticks
	if e >= st.spec.EndgameTicks {
		st.flags[u] |= flagHalted
		st.haltedCount++
		if st.res.FirstHaltTime == 0 {
			st.res.FirstHaltTime = now
		}
		return
	}
	va := st.sample(u)
	vb := st.sample(u)
	if a := st.pop.ColorOf(va); a == st.pop.ColorOf(vb) {
		st.adopt(u, a, now)
	}
	st.block2(u, va, vb, now)
}

// churn replaces node u with a fresh joiner: a uniformly random opinion,
// working and real time zero, and cleared protocol state (no bit, no
// intermediate, empty gadget sample store). The churned activation performs
// no protocol work; the Sync Gadget pulls the rejoined node back into the
// bulk schedule at its first jump, exactly as it repairs desynchronized
// nodes.
func (st *state) churn(u int, now float64) {
	st.adopt(u, population.Color(st.cfg.Rand.Intn(st.pop.K())), now)
	st.working[u] = 0
	st.real[u] = 0
	st.flags[u] &^= flagBit
	st.intermediate[u] = population.None
	st.sampleCount[u] = 0
	st.res.Churns++
}

// probe emits a synchronization-quality snapshot and schedules the next one.
func (st *state) probe(now float64) {
	interval := st.cfg.ProbeInterval
	if interval == 0 {
		interval = 1
	}
	st.nextProbe = now + interval

	if cap(st.probeBuf) < st.n {
		st.probeBuf = make([]int32, 0, st.n)
	}
	buf := st.probeBuf[:0]
	halted := 0
	for u := 0; u < st.n; u++ {
		if st.flags[u]&flagCrashed != 0 {
			continue
		}
		if st.flags[u]&flagHalted != 0 {
			halted++
			continue
		}
		buf = append(buf, st.working[u])
	}
	st.probeBuf = buf

	p := Probe{
		Time:              now,
		Active:            len(buf),
		Halted:            halted,
		PluralityFraction: st.pop.Fraction(st.pop.Plurality()),
	}
	if len(buf) > 0 {
		slices.Sort(buf)
		med := buf[len(buf)/2]
		q5 := buf[quantileIndex(len(buf), 5)]
		q95 := buf[quantileIndex(len(buf), 95)]
		p.MedianWorking = int64(med)
		p.Spread90 = int64(q95) - int64(q5)
		maxDev := int32(0)
		poor := 0
		for _, w := range buf {
			d := w - med
			if d < 0 {
				d = -d
			}
			if d > maxDev {
				maxDev = d
			}
			if int(d) > st.spec.Delta {
				poor++
			}
		}
		p.MaxAbsDev = int64(maxDev)
		p.PoorlySynced = poor
	}
	st.cfg.OnProbe(p)
}

// quantileIndex returns the index of the pct-th percentile in a sorted
// slice of length n > 0, clamped into [0, n-1]. The clamp matters for the
// small populations (n < 20) where n·pct/100 degenerates: without it a
// probe over very few active nodes could index one past the end.
func quantileIndex(n, pct int) int {
	i := n * pct / 100
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}
