// Package weaksync is the generic framework the paper's discussion (§4)
// anticipates: it adapts *synchronous-style, phase-structured protocols* to
// the asynchronous Poisson-clock model using the paper's weak-synchronicity
// toolkit — do-nothing padding blocks (tactical waiting) around every
// critical step and the Sync Gadget appended to every phase.
//
// A protocol is expressed as a Program: an ordered list of phases, each an
// ordered list of Steps. The framework compiles the program into a
// working-time schedule in which
//
//   - each step owns one block of ∆ = Θ(log n / log log n) ticks, executing
//     on the first Window ticks of the block and idling for the rest,
//   - each step's block is followed by one full do-nothing block, so that
//     all but o(n) nodes finish a step before any of them starts the next,
//   - every phase ends with a Sync Gadget sub-phase (sample real times,
//     wait, jump to the median) that re-synchronizes working times.
//
// The paper's own core protocol is one instance of this framework (see the
// package tests, which re-express Two-Choices + commit + Bit-Propagation as
// a Program); internal/core keeps its hand-specialized implementation for
// performance and for the endgame/failure-injection features.
package weaksync

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"plurality/internal/graph"
	"plurality/internal/rng"
	"plurality/internal/sched"
)

// Env is the execution environment handed to a step's action: it identifies
// the acting node and provides sampling primitives.
type Env struct {
	// Node is the acting node.
	Node int
	// Time is the current parallel time.
	Time float64
	// Tick is how many ticks of the step's window the node has already
	// spent (0 for the first).
	Tick int

	g graph.Graph
	r *rng.RNG
}

// Sample returns a uniformly random neighbor of the acting node.
func (e *Env) Sample() int { return e.g.Sample(e.r, e.Node) }

// Rand exposes the run's random source for randomized steps.
func (e *Env) Rand() *rng.RNG { return e.r }

// Step is one critical instruction window of a phase.
type Step struct {
	// Name identifies the step in errors and traces.
	Name string
	// Window is how many consecutive ticks of the step's block execute
	// Do; it is clamped to the block length ∆. Window 0 means 1 (a
	// single instruction, like the Two-Choices or commit steps).
	Window int
	// Do is invoked once per executing tick.
	Do func(env *Env)
}

// Phase is an ordered list of steps; the framework appends the Sync Gadget
// automatically.
type Phase struct {
	Steps []Step
}

// Program is a synchronous-style protocol to run under weak synchronicity.
type Program struct {
	// Phases run in order, once each. Use Repeat to unroll a phase body
	// multiple times.
	Phases []Phase
	// OnHalt, if set, is invoked once per node when it completes the
	// last phase.
	OnHalt func(node int)
}

// Repeat returns n copies of the given phase, the common way to build
// "Θ(log log n) identical phases" programs.
func Repeat(n int, p Phase) []Phase {
	out := make([]Phase, n)
	for i := range out {
		out[i] = p
	}
	return out
}

// Config configures a framework run.
type Config struct {
	// Graph is the topology. Required.
	Graph graph.Graph
	// Scheduler delivers activations. Required; node count must match.
	Scheduler sched.Scheduler
	// Rand drives all sampling. Required.
	Rand *rng.RNG
	// MaxTime bounds the run in parallel time. Required (> 0).
	MaxTime float64
	// Delta overrides the block length (0 = ⌈10·ln n / ln ln n⌉, the
	// calibration used by internal/core).
	Delta int
	// GadgetSamples overrides the Sync Gadget sampling length
	// (0 = min(∆, ⌈(log₂ log₂ n)³⌉)).
	GadgetSamples int
	// DisableSyncGadget removes the sync sub-phases (ablation).
	DisableSyncGadget bool
	// Stop, if set, is polled after every tick; returning true ends the
	// run early (e.g. a consensus detector).
	Stop func() bool
}

// Result describes a framework run.
type Result struct {
	// Halted is the number of nodes that completed the whole program.
	Halted int
	// Stopped reports whether Config.Stop ended the run.
	Stopped bool
	// Time is the parallel time of the last delivered tick.
	Time float64
	// Ticks is the number of delivered activations.
	Ticks int64
	// Jumps is the number of Sync Gadget jumps executed.
	Jumps int64
}

// ErrIncomplete reports that the time budget elapsed before every node
// completed the program (and Stop never fired).
var ErrIncomplete = errors.New("weaksync: nodes did not complete the program in time")

// schedule is the compiled layout of a program.
type schedule struct {
	delta         int
	gadgetSamples int
	phaseStart    []int64 // absolute first tick of each phase
	phaseLen      []int64
	totalTicks    int64
	// stepOffset[p][s] is the in-phase offset of phase p's step s.
	stepOffset [][]int64
	gadgetOff  int64 // in-phase offset of gadget sampling (last sub-phase)
	jumpOff    int64 // in-phase offset of the jump step (phase end − 1)
	hasGadget  bool
}

// compile lays out the program for n nodes.
func compile(p Program, cfg Config, n int) (*schedule, error) {
	if len(p.Phases) == 0 {
		return nil, errors.New("weaksync: empty program")
	}
	ln := math.Log(float64(n))
	lnln := math.Log(ln)
	if lnln < 1 {
		lnln = 1
	}
	delta := cfg.Delta
	if delta == 0 {
		delta = int(math.Ceil(10 * ln / lnln))
	}
	if delta < 2 {
		return nil, fmt.Errorf("weaksync: Delta = %d, want >= 2", delta)
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
		gadget = 1
	}

	s := &schedule{
		delta:         delta,
		gadgetSamples: gadget,
		hasGadget:     !cfg.DisableSyncGadget,
	}
	var cursor int64
	for _, phase := range p.Phases {
		if len(phase.Steps) == 0 {
			return nil, errors.New("weaksync: phase with no steps")
		}
		offsets := make([]int64, len(phase.Steps))
		var pos int64
		for i, step := range phase.Steps {
			if step.Do == nil {
				return nil, fmt.Errorf("weaksync: step %q has no action", step.Name)
			}
			offsets[i] = pos
			pos += int64(2 * delta) // step block + padding block
		}
		// Sync sub-phase: one sampling block + one waiting block ending
		// in the jump step. Present (as idle time) even when the gadget
		// is disabled, so ablations compare identical schedules.
		gadgetOff := pos
		pos += int64(2 * delta)

		s.phaseStart = append(s.phaseStart, cursor)
		s.phaseLen = append(s.phaseLen, pos)
		s.stepOffset = append(s.stepOffset, offsets)
		s.gadgetOff = gadgetOff
		s.jumpOff = pos - 1
		cursor += pos
	}
	s.totalTicks = cursor
	return s, nil
}

// locate maps an absolute working time to (phase, inPhase); done when
// w >= totalTicks.
func (s *schedule) locate(w int64) (phase int, inPhase int64, done bool) {
	if w >= s.totalTicks {
		return 0, 0, true
	}
	// Phases may have unequal lengths; binary-search the start table.
	phase = sort.Search(len(s.phaseStart), func(i int) bool { return s.phaseStart[i] > w }) - 1
	return phase, w - s.phaseStart[phase], false
}

// runner is the mutable execution state of one framework run. Keeping the
// per-tick body as a method (rather than a capturing closure handed to the
// scheduler) lets the batched run loop dispatch it directly.
type runner struct {
	p   Program
	cfg Config
	sch *schedule
	n   int

	working []int64
	real    []int64
	halted  []bool
	samples []int64
	counts  []int32
	buf     []int64
	env     Env
	res     Result
}

// Run executes the program on n = cfg.Graph.N() nodes until every node
// halts, Stop fires, or the time budget elapses.
func Run(p Program, cfg Config) (Result, error) {
	if err := validate(cfg); err != nil {
		return Result{}, err
	}
	n := cfg.Graph.N()
	sch, err := compile(p, cfg, n)
	if err != nil {
		return Result{}, err
	}

	rn := &runner{
		p:       p,
		cfg:     cfg,
		sch:     sch,
		n:       n,
		working: make([]int64, n),
		real:    make([]int64, n),
		halted:  make([]bool, n),
		samples: make([]int64, n*sch.gadgetSamples),
		counts:  make([]int32, n),
		buf:     make([]int64, sch.gadgetSamples),
		env:     Env{g: cfg.Graph, r: cfg.Rand},
	}

	last, stopped := sched.RunBatch(cfg.Scheduler, cfg.MaxTime, nil, rn.tick)

	rn.res.Time = last.Time
	rn.res.Ticks = last.Seq + 1
	if !stopped && !rn.res.Stopped && rn.res.Halted < n {
		return rn.res, fmt.Errorf("weaksync: %d/%d halted by time %v: %w", rn.res.Halted, n, cfg.MaxTime, ErrIncomplete)
	}
	return rn.res, nil
}

// tick executes one activation and reports whether the run continues.
func (rn *runner) tick(t sched.Tick) bool {
	u := t.Node
	if rn.halted[u] {
		return !rn.done()
	}
	rn.real[u]++
	w := rn.working[u]
	rn.working[u] = w + 1

	sch := rn.sch
	phase, pos, finished := sch.locate(w)
	if finished {
		rn.halted[u] = true
		rn.res.Halted++
		if rn.p.OnHalt != nil {
			rn.p.OnHalt(u)
		}
		return !rn.done()
	}

	offsets := sch.stepOffset[phase]
	for i, off := range offsets {
		step := rn.p.Phases[phase].Steps[i]
		window := int64(step.Window)
		if window <= 0 {
			window = 1
		}
		if window > int64(sch.delta) {
			window = int64(sch.delta)
		}
		if pos >= off && pos < off+window {
			rn.env.Node = u
			rn.env.Time = t.Time
			rn.env.Tick = int(pos - off)
			step.Do(&rn.env)
			return !rn.done()
		}
	}

	if sch.hasGadget {
		switch {
		case pos >= sch.gadgetOff && pos < sch.gadgetOff+int64(sch.gadgetSamples):
			v := rn.cfg.Graph.Sample(rn.cfg.Rand, u)
			if c := rn.counts[u]; int(c) < sch.gadgetSamples {
				rn.samples[u*sch.gadgetSamples+int(c)] = rn.real[v] - rn.real[u]
				rn.counts[u] = c + 1
			}
		case pos == sch.jumpOff:
			if c := int(rn.counts[u]); c > 0 {
				b := rn.buf[:c]
				copy(b, rn.samples[u*sch.gadgetSamples:u*sch.gadgetSamples+c])
				sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
				med := b[c/2]
				if c%2 == 0 {
					med = (b[c/2-1] + b[c/2]) / 2
				}
				if target := med + rn.real[u]; target >= 0 {
					rn.working[u] = target
				} else {
					rn.working[u] = 0
				}
				rn.counts[u] = 0
				rn.res.Jumps++
			}
		}
	}
	return !rn.done()
}

// done updates res.Stopped from the Stop hook and reports whether the run
// should end.
func (rn *runner) done() bool {
	if rn.cfg.Stop != nil && rn.cfg.Stop() {
		rn.res.Stopped = true
		return true
	}
	return rn.res.Halted >= rn.n
}

func validate(cfg Config) error {
	switch {
	case cfg.Graph == nil:
		return errors.New("weaksync: nil graph")
	case cfg.Scheduler == nil:
		return errors.New("weaksync: nil scheduler")
	case cfg.Rand == nil:
		return errors.New("weaksync: nil rand")
	case cfg.MaxTime <= 0:
		return fmt.Errorf("weaksync: MaxTime = %v, want > 0", cfg.MaxTime)
	case cfg.Scheduler.N() != cfg.Graph.N():
		return fmt.Errorf("weaksync: scheduler has %d nodes, graph %d", cfg.Scheduler.N(), cfg.Graph.N())
	}
	return nil
}
