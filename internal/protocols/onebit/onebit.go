// Package onebit implements OneExtraBit, the synchronous plurality-consensus
// protocol of §2 of the paper (Theorem 1.2), which augments Two-Choices with
// one extra bit of memory per node and push-pull style Bit-Propagation.
//
// The protocol proceeds in phases. Each phase consists of:
//
//  1. One Two-Choices round: every node samples two nodes uniformly at
//     random with replacement; if their colors coincide the node adopts that
//     color *and sets its bit* — so right after this round the number of
//     bit-set nodes of color C_j concentrates around c_j²/n, quadratically
//     favouring the plurality.
//  2. Θ(log k + log log n) Bit-Propagation rounds: every bitless node
//     samples one node per round; upon sampling a bit-set node it adopts
//     that node's color and sets its own bit. This spreads the (quadratically
//     biased) post-Two-Choices distribution to the whole graph while — by
//     the Pólya-urn argument of §3.1 — essentially preserving it.
//  3. Bits are cleared and the next phase begins.
//
// Per phase the relative advantage squares, c'_1/c'_j ≥ (1−o(1))·(c_1/c_j)²,
// so O(log(c_1/(c_1−c_2)) + log log n) phases suffice — the run time of
// Theorem 1.2 — compared to Two-Choices' Ω(k) barrier.
package onebit

import (
	"errors"
	"fmt"
	"math"

	"plurality/internal/graph"
	"plurality/internal/population"
	"plurality/internal/rng"
)

// ErrPhaseLimit reports a run that exhausted its phase budget before
// reaching consensus.
var ErrPhaseLimit = errors.New("onebit: phase limit exceeded")

// ErrStopped reports a run interrupted by its Stop hook (context
// cancellation at the public layer) before consensus or the phase budget.
var ErrStopped = errors.New("onebit: run stopped")

// PhaseInfo is delivered to the OnPhase observer after each phase.
type PhaseInfo struct {
	// Phase is the zero-based phase index.
	Phase int
	// BitsAfterTwoChoices is the number of bit-set nodes right after the
	// Two-Choices round (concentrates around Σ c_j²/n).
	BitsAfterTwoChoices int
	// BitsAfterPropagation is the number of bit-set nodes at the end of
	// the Bit-Propagation sub-phase (close to n when the sub-phase length
	// is sufficient).
	BitsAfterPropagation int
	// Counts is the color histogram at the end of the phase.
	Counts []int64
}

// Config configures a OneExtraBit run.
type Config struct {
	// Graph is the communication topology. Required.
	Graph graph.Graph
	// Rand drives all sampling. Required.
	Rand *rng.RNG
	// MaxPhases bounds the run. Required (> 0).
	MaxPhases int
	// PropagationRounds is the length of the Bit-Propagation sub-phase.
	// Zero selects the theorem schedule ⌈log₂k + log₂log₂n⌉ + 4.
	PropagationRounds int
	// OnPhase, if set, observes each completed phase.
	OnPhase func(PhaseInfo)
	// Stop, if non-nil, is polled at every synchronous round boundary;
	// returning true abandons the run with ErrStopped and the progress made
	// so far.
	Stop func() bool
}

// Result describes a completed run.
type Result struct {
	// Phases executed (including the final, possibly partial one).
	Phases int
	// Rounds is the total number of synchronous rounds across all
	// sub-phases.
	Rounds int
	// Done reports whether consensus was reached.
	Done bool
	// Winner is the consensus color if Done, else the current plurality.
	Winner population.Color
}

// DefaultPropagationRounds returns the theorem-prescribed Bit-Propagation
// sub-phase length for n nodes and k colors: the pull process needs
// ~log₂ k rounds to take the bit-set fraction from 1/k to 1/2 and
// ~log₂ log₂ n more to absorb the stragglers, plus constant slack.
func DefaultPropagationRounds(n, k int) int {
	if n < 2 {
		return 1
	}
	lk := math.Log2(float64(k))
	if lk < 0 {
		lk = 0
	}
	lln := math.Log2(math.Log2(float64(n)) + 1)
	if lln < 0 {
		lln = 0
	}
	return int(math.Ceil(lk+lln)) + 4
}

// Run executes OneExtraBit on pop until consensus or cfg.MaxPhases.
func Run(pop *population.Population, cfg Config) (Result, error) {
	var rn Runner
	return rn.Run(pop, cfg)
}

// Runner executes OneExtraBit runs while reusing the three O(n) staging
// buffers (bit, next bit, next color) across calls, so trial loops stop
// paying an allocation-and-zero cost per run. Not safe for concurrent use.
type Runner struct {
	bit       []bool
	nextBit   []bool
	nextColor []population.Color
}

// grow returns buf resized to n and zeroed, reusing its backing array when
// the capacity suffices.
func grow[T bool | population.Color](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// Run is Runner's buffer-reusing equivalent of the package-level Run;
// results for a fixed seed are bit-identical.
func (rn *Runner) Run(pop *population.Population, cfg Config) (Result, error) {
	if err := validate(pop, cfg); err != nil {
		return Result{}, err
	}
	if pop.IsUnanimous() {
		return Result{Done: true, Winner: pop.Plurality()}, nil
	}

	n := pop.N()
	propRounds := cfg.PropagationRounds
	if propRounds == 0 {
		propRounds = DefaultPropagationRounds(n, pop.K())
	}

	rn.bit = grow(rn.bit, n)
	rn.nextBit = grow(rn.nextBit, n)
	rn.nextColor = grow(rn.nextColor, n)
	var (
		bit       = rn.bit
		nextBit   = rn.nextBit
		nextColor = rn.nextColor
		res       Result
	)

	for phase := 0; phase < cfg.MaxPhases; phase++ {
		if cfg.Stop != nil && cfg.Stop() {
			return stopResult(res, pop)
		}
		res.Phases = phase + 1
		info := PhaseInfo{Phase: phase}

		// Sub-phase 1: one Two-Choices round. The bit records whether the
		// node executed the adopt action (its two samples coincided).
		for u := 0; u < n; u++ {
			a := pop.ColorOf(cfg.Graph.Sample(cfg.Rand, u))
			b := pop.ColorOf(cfg.Graph.Sample(cfg.Rand, u))
			if a == b {
				nextColor[u] = a
				nextBit[u] = true
			} else {
				nextColor[u] = population.None
				nextBit[u] = false
			}
		}
		commit(pop, nextColor, bit, nextBit)
		res.Rounds++
		for u := 0; u < n; u++ {
			if bit[u] {
				info.BitsAfterTwoChoices++
			}
		}
		if pop.IsUnanimous() {
			finishPhase(cfg, &info, pop, bit)
			return finish(res, pop), nil
		}

		// Sub-phase 2: Bit-Propagation. Bitless nodes pull one sample per
		// round and join the bit-set crowd when they hit it.
		for round := 0; round < propRounds; round++ {
			if cfg.Stop != nil && cfg.Stop() {
				return stopResult(res, pop)
			}
			for u := 0; u < n; u++ {
				nextColor[u] = population.None
				nextBit[u] = bit[u]
				if bit[u] {
					continue
				}
				v := cfg.Graph.Sample(cfg.Rand, u)
				if bit[v] {
					nextColor[u] = pop.ColorOf(v)
					nextBit[u] = true
				}
			}
			commit(pop, nextColor, bit, nextBit)
			res.Rounds++
			if pop.IsUnanimous() {
				finishPhase(cfg, &info, pop, bit)
				return finish(res, pop), nil
			}
		}

		finishPhase(cfg, &info, pop, bit)
	}
	res.Winner = pop.Plurality()
	return res, fmt.Errorf("onebit: no consensus after %d phases: %w", cfg.MaxPhases, ErrPhaseLimit)
}

// commit applies the staged colors and bits simultaneously (the synchronous
// model's round boundary).
func commit(pop *population.Population, nextColor []population.Color, bit, nextBit []bool) {
	for u := range nextColor {
		if c := nextColor[u]; c != population.None {
			pop.SetColor(u, c)
		}
		bit[u] = nextBit[u]
	}
}

// finishPhase reports the phase to the observer and clears all bits
// (sub-phase 3, the cleanup step).
func finishPhase(cfg Config, info *PhaseInfo, pop *population.Population, bit []bool) {
	for u := range bit {
		if bit[u] {
			info.BitsAfterPropagation++
		}
		bit[u] = false
	}
	if cfg.OnPhase != nil {
		info.Counts = pop.Counts()
		cfg.OnPhase(*info)
	}
}

func finish(res Result, pop *population.Population) Result {
	res.Done = true
	res.Winner = pop.Plurality()
	return res
}

// stopResult reports an interrupted run: the progress so far plus the
// current plurality, alongside ErrStopped.
func stopResult(res Result, pop *population.Population) (Result, error) {
	res.Winner = pop.Plurality()
	return res, fmt.Errorf("onebit: stopped after %d phases: %w", res.Phases, ErrStopped)
}

func validate(pop *population.Population, cfg Config) error {
	switch {
	case pop == nil:
		return errors.New("onebit: nil population")
	case cfg.Graph == nil:
		return errors.New("onebit: nil graph")
	case cfg.Rand == nil:
		return errors.New("onebit: nil rand")
	case cfg.Graph.N() != pop.N():
		return fmt.Errorf("onebit: graph has %d nodes, population %d", cfg.Graph.N(), pop.N())
	}
	return cfg.Check()
}

// Check reports the first of cfg's budgets that is out of range: the
// checks of Run that need no population, graph or generator.
func (cfg Config) Check() error {
	switch {
	case cfg.MaxPhases <= 0:
		return fmt.Errorf("onebit: MaxPhases = %d, want > 0", cfg.MaxPhases)
	case cfg.PropagationRounds < 0:
		return fmt.Errorf("onebit: PropagationRounds = %d, want >= 0", cfg.PropagationRounds)
	}
	return nil
}
