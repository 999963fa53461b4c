// Package core implements the paper's primary contribution (Theorem 1.3):
// an asynchronous plurality-consensus protocol that converges in Θ(log n)
// parallel time on the complete graph when the plurality color has a
// (1+ε)-multiplicative advantage and k = O(exp(log n / log log n)).
//
// # Protocol structure
//
// Every node runs a fixed *schedule* indexed by its working time (the
// number of protocol ticks it has executed, adjustable by jumps). Part 1
// consists of Phases phases of length 7∆ ticks each, where
// ∆ = Θ(log n / log log n) is the block length:
//
//	offset 0        — Two-Choices step: sample two nodes; if their colors
//	                  coincide, record that color as the intermediate color
//	                  (blocks 1–2 are otherwise do-nothing padding)
//	offset 2∆       — commit step: adopt the intermediate color if set and
//	                  set the bit to "adopted"; clear the intermediate
//	offsets [3∆,4∆) — Bit-Propagation: a bitless node samples once per
//	                  tick; on hitting a bit-set node it adopts that node's
//	                  color and sets its own bit
//	offsets [5∆,5∆+L) — Sync Gadget sampling: collect the real time of a
//	                  random node per tick (L = min(∆, ⌈log₂³log₂ n⌉));
//	                  samples are kept current by the node's own ticks
//	offset 7∆−1     — jump step: set the working time to the median of the
//	                  collected (current) real-time samples
//
// The do-nothing blocks are the paper's "tactical waiting": they give the
// (1−o(1)) well-synchronized nodes room to all pass a critical instruction
// before any of them reaches the next one. The Sync Gadget implements weak
// perpetual synchronization — after each phase all but o(n) nodes have
// working times within ∆ of each other.
//
// Part 2 (the endgame, §3.2) is plain asynchronous Two-Choices for
// EndgameTicks = Θ(log n) ticks per node, after which the node halts. The
// paper shows consensus on C_1 completes before the first node halts,
// w.h.p.; Result records both instants so experiments can verify it.
//
// # Constants
//
// The brief announcement specifies only the asymptotic orders of ∆, the
// phase count, the gadget length and the endgame length. The concrete
// factors here (DeltaFactor, PhaseSlack, EndgameFactor) are calibrated so
// the part-1 invariants hold at simulable n and are configurable for
// ablation studies (experiment E7 disables the gadget entirely).
package core

import (
	"errors"
	"fmt"
	"math"

	"plurality/internal/adversary"
	"plurality/internal/graph"
	"plurality/internal/population"
	"plurality/internal/rng"
	"plurality/internal/sched"
)

// Default schedule constants; see Config.
const (
	// DefaultDeltaFactor scales the block length ∆ = factor·ln n/ln ln n.
	// The factor is calibrated for simulable n: the Sync Gadget's jump
	// target is a median of GadgetSamples real-time samples whose spread
	// is Θ(√t); ∆ must dominate that estimator noise plus the √(7∆)
	// within-phase drift, which at n ≤ 10⁷ requires a larger constant
	// than the asymptotic regime suggests.
	DefaultDeltaFactor = 10.0
	// DefaultPhaseSlack is added to the ⌈log₂ ln n⌉ part-1 phase count.
	DefaultPhaseSlack = 4
	// DefaultEndgameFactor scales the per-node endgame tick count
	// EndgameTicks = factor·ln n.
	DefaultEndgameFactor = 6.0
)

// ErrNoConsensus reports a run that ended without consensus: it exhausted
// MaxTime, or every live node halted first (ErrAllHalted, which matches
// ErrNoConsensus too).
var ErrNoConsensus = errors.New("core: no consensus within time budget")

// ErrAllHalted reports a run in which every live node halted before
// consensus. errors.Is matches it against ErrNoConsensus as well.
var ErrAllHalted error = allHalted{}

type allHalted struct{}

func (allHalted) Error() string        { return "core: every live node halted before consensus" }
func (allHalted) Is(target error) bool { return target == ErrNoConsensus }

// ErrStopped reports a run interrupted by its Stop hook (context
// cancellation at the public layer) before completing.
var ErrStopped = errors.New("core: run stopped")

// Config configures one protocol run.
type Config struct {
	// Graph is the communication topology; the paper analyzes the
	// complete graph. Required.
	Graph graph.Graph
	// Scheduler delivers asynchronous activations (sequential or Poisson
	// engine). Required; node count must match the population.
	Scheduler sched.Scheduler
	// Rand drives all protocol sampling. Required.
	Rand *rng.RNG
	// MaxTime bounds the run in parallel time. Required (> 0).
	MaxTime float64

	// Delta overrides the block length ∆. Zero selects
	// ⌈DeltaFactor·ln n / ln ln n⌉.
	Delta int
	// DeltaFactor overrides DefaultDeltaFactor when Delta is zero.
	DeltaFactor float64
	// Phases overrides the number of part-1 phases. Zero selects
	// ⌈log₂ ln n⌉ + DefaultPhaseSlack.
	Phases int
	// GadgetSamples overrides the Sync Gadget sampling length L. Zero
	// selects min(∆, ⌈(log₂ log₂ n)³⌉).
	GadgetSamples int
	// EndgameTicks overrides the per-node part-2 budget. Zero selects
	// ⌈DefaultEndgameFactor·ln n⌉.
	EndgameTicks int

	// DisableSyncGadget turns off gadget sampling and jumps — the
	// ablation of experiment E7.
	DisableSyncGadget bool
	// SkipPart1 starts every node directly in part 2 (the endgame),
	// which is how experiment E9 studies §3.2 in isolation: seed the
	// population with c_1 ≥ (1−ε)n and check consensus lands before the
	// first halt.
	SkipPart1 bool
	// RunToHalt keeps the run going after consensus until every live
	// node has halted (or MaxTime elapses), so FirstHaltTime and
	// EndgameSafe reflect the full §3.2 guarantee rather than stopping
	// at the consensus instant.
	RunToHalt bool
	// DesyncFraction, in [0, 1), marks that fraction of nodes as
	// initially poorly synchronized: each starts with working and real
	// time drawn uniformly from [0, DesyncSpread) instead of 0. The
	// paper tolerates o(n) such nodes; the Sync Gadget pulls them back
	// into the bulk schedule at their first jump. (Desynchronizing the
	// *whole* population shifts its real-time distribution permanently,
	// which is outside the paper's model — real times are the shared
	// clock the gadget's median estimates.)
	DesyncFraction float64
	// DesyncSpread is the desynchronization range in ticks; required
	// positive when DesyncFraction > 0.
	DesyncSpread int
	// CrashFraction, in [0, 1), marks that fraction of nodes as crashed:
	// they never act (their ticks are no-ops) but remain visible to
	// sampling. Consensus is then evaluated over the live nodes only.
	CrashFraction float64
	// Delay models response latency per communicating step (§4
	// extension): after any step that contacts another node, the node
	// blocks — making no schedule progress — until the response arrives.
	// nil means instant responses.
	Delay sched.DelayModel
	// Latency models per-edge message latency (the asynchronous
	// edge-latency extension after Bankhamer et al.): every edge used by a
	// communicating step incurs an independent latency draw and the node
	// blocks until the slowest contacted edge has responded. Unlike Delay
	// (one node-local draw per step), a two-contact step waits for the
	// maximum of two draws. nil means instant edges. Latency composes
	// additively with Delay when both are set.
	Latency sched.LatencyModel
	// ChurnRate, in [0, 1), is the probability that any given activation
	// is a churn event instead of a protocol step: the activated node is
	// replaced by a fresh joiner with a uniformly random opinion, working
	// and real time zero, and cleared protocol state. Since nodes activate
	// at rate ~1, this is also the per-node churn rate per unit parallel
	// time. Exact consensus stays reachable only while the steady-state
	// number of freshly churned nodes (≈ ChurnRate·n) is o(1) — keep
	// ChurnRate well below 1/n, or accept ErrNoConsensus as the outcome.
	// Halted nodes no longer activate and therefore no longer churn.
	ChurnRate float64

	// ProbeInterval is the period, in parallel time, of synchronization
	// probes delivered to OnProbe. Zero selects 1.0; negative disables
	// probing even if OnProbe is set.
	ProbeInterval float64
	// OnProbe observes periodic synchronization-quality snapshots.
	OnProbe func(Probe)

	// Adversary, if non-nil, attacks the run: scheduling adversaries
	// redirect or suppress activations and corruption adversaries flip
	// live, not-yet-halted nodes' opinions at window boundaries. Byzantine
	// adversaries are rejected — the protocol's samples carry bits and real
	// times alongside colors, so there is no single lying channel to
	// intercept (use the generic Rule engines for Byzantine sampling).
	// Instances are single-run: construct a fresh one per trial.
	Adversary *adversary.Adversary

	// Stop, if non-nil, is polled at a coarse stride (every tick batch or
	// stopCheckStride ticks); returning true abandons the run with
	// ErrStopped and the progress made so far.
	Stop func() bool
	// OnObserve, if set, is invoked every ObserveInterval units of parallel
	// time (an interval <= 0 observes every tick) with the current time and
	// delivered tick count. It is the streaming-observation hook of the
	// public layer, which reads the population histogram during the
	// callback; it is independent of the probe stream, so both can be
	// active with different periods.
	ObserveInterval float64
	OnObserve       func(now float64, ticks int64)
}

// Spec is the fully resolved schedule layout of a run. All quantities are
// in ticks of working time.
type Spec struct {
	// Delta is the block length ∆.
	Delta int
	// PhaseTicks is the length of one part-1 phase (7∆).
	PhaseTicks int
	// Phases is the number of part-1 phases.
	Phases int
	// CommitOffset is the in-phase offset of the commit step (2∆).
	CommitOffset int
	// BPStart and BPEnd delimit the Bit-Propagation window [3∆, 4∆).
	BPStart, BPEnd int
	// GadgetStart is the in-phase offset where gadget sampling begins
	// (5∆); GadgetSamples is its length L.
	GadgetStart   int
	GadgetSamples int
	// JumpOffset is the in-phase offset of the jump step (7∆−1).
	JumpOffset int
	// Part1Ticks is the first part-2 working time (Phases·PhaseTicks).
	Part1Ticks int
	// EndgameTicks is the per-node part-2 budget.
	EndgameTicks int
}

// Plan resolves the schedule for a population of n nodes under cfg,
// applying all defaults. It is exported so tests and the experiment
// harness can reason about the layout without running the protocol.
func Plan(cfg Config, n int) (Spec, error) {
	if n < 4 {
		return Spec{}, fmt.Errorf("core: need n >= 4 nodes, got %d", n)
	}
	ln := math.Log(float64(n))
	lnln := math.Log(ln)
	if lnln < 1 {
		lnln = 1
	}

	delta := cfg.Delta
	if delta == 0 {
		factor := cfg.DeltaFactor
		if factor == 0 {
			factor = DefaultDeltaFactor
		}
		delta = int(math.Ceil(factor * ln / lnln))
	}
	if delta < 2 {
		return Spec{}, fmt.Errorf("core: block length Delta = %d, want >= 2", delta)
	}

	phases := cfg.Phases
	if phases == 0 {
		phases = int(math.Ceil(math.Log2(ln))) + DefaultPhaseSlack
	}
	if phases < 1 {
		return Spec{}, fmt.Errorf("core: Phases = %d, want >= 1", phases)
	}

	gadget := cfg.GadgetSamples
	if gadget == 0 {
		l2 := math.Log2(float64(n))
		gadget = int(math.Ceil(math.Pow(math.Log2(l2), 3)))
	}
	if gadget > delta {
		gadget = delta
	}
	if gadget < 1 {
		return Spec{}, fmt.Errorf("core: GadgetSamples = %d, want >= 1", gadget)
	}

	endgame := cfg.EndgameTicks
	if endgame == 0 {
		endgame = int(math.Ceil(DefaultEndgameFactor * ln))
	}
	if endgame < 1 {
		return Spec{}, fmt.Errorf("core: EndgameTicks = %d, want >= 1", endgame)
	}

	s := Spec{
		Delta:         delta,
		PhaseTicks:    7 * delta,
		Phases:        phases,
		CommitOffset:  2 * delta,
		BPStart:       3 * delta,
		BPEnd:         4 * delta,
		GadgetStart:   5 * delta,
		GadgetSamples: gadget,
		JumpOffset:    7*delta - 1,
		EndgameTicks:  endgame,
	}
	s.Part1Ticks = phases * s.PhaseTicks
	if cfg.SkipPart1 {
		s.Phases = 0
		s.Part1Ticks = 0
	}
	// The run state stores working times as int32 (the schedule is
	// Θ(log n) ticks, so 32 bits are plentiful); reject override choices
	// that could push the schedule past that representation.
	if total := int64(phases)*int64(s.PhaseTicks) + int64(s.EndgameTicks); total > math.MaxInt32 {
		return Spec{}, fmt.Errorf("core: schedule of %d ticks exceeds the int32 working-time representation", total)
	}
	return s, nil
}

// Probe is a periodic synchronization-quality snapshot over the live,
// not-yet-halted nodes.
type Probe struct {
	// Time is the parallel time of the snapshot.
	Time float64
	// Active is the number of live, non-halted nodes observed.
	Active int
	// Halted is the number of nodes that finished part 2.
	Halted int
	// MedianWorking is the median working time.
	MedianWorking int64
	// Spread90 is the q95 − q5 working-time spread.
	Spread90 int64
	// MaxAbsDev is the maximum |workingTime − median|.
	MaxAbsDev int64
	// PoorlySynced counts nodes with |workingTime − median| > ∆ — the
	// paper requires this to stay o(n).
	PoorlySynced int
	// PluralityFraction is the support fraction of the current plurality
	// color (over all nodes, including crashed ones).
	PluralityFraction float64
}

// Result describes one completed run.
type Result struct {
	// Done reports whether all live nodes agreed on one color.
	Done bool
	// Winner is the consensus color if Done, else the current plurality.
	Winner population.Color
	// ConsensusTime is the parallel time at which consensus was reached
	// (valid when Done).
	ConsensusTime float64
	// FirstHaltTime is the parallel time the first node finished part 2;
	// zero if no node halted before the run ended.
	FirstHaltTime float64
	// EndgameSafe reports the §3.2 guarantee: consensus happened before
	// the first node halted.
	EndgameSafe bool
	// Time is the parallel time of the last delivered tick.
	Time float64
	// Ticks is the total number of delivered activations.
	Ticks int64
	// Jumps is the total number of executed Sync Gadget jumps.
	Jumps int64
	// Churns is the total number of churn events (node replacements).
	Churns int64
	// MaxJumpAdjustment is the largest |jump target − working time before
	// jump| observed, a measure of how hard the gadget had to work.
	MaxJumpAdjustment int64
	// Corruptions is the number of opinions the adversary rewrote.
	Corruptions int64
	// Biased is the number of activations the adversary redirected or
	// suppressed.
	Biased int64
}
