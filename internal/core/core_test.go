package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"plurality/internal/graph"
	"plurality/internal/population"
	"plurality/internal/rng"
	"plurality/internal/sched"
)

func TestPlanDefaults(t *testing.T) {
	spec, err := Plan(Config{}, 100000)
	if err != nil {
		t.Fatal(err)
	}
	ln := math.Log(100000.0)
	wantDelta := int(math.Ceil(DefaultDeltaFactor * ln / math.Log(ln)))
	if spec.Delta != wantDelta {
		t.Errorf("Delta = %d, want %d", spec.Delta, wantDelta)
	}
	if spec.PhaseTicks != 7*spec.Delta {
		t.Errorf("PhaseTicks = %d, want 7*Delta = %d", spec.PhaseTicks, 7*spec.Delta)
	}
	if spec.Phases != int(math.Ceil(math.Log2(ln)))+DefaultPhaseSlack {
		t.Errorf("Phases = %d", spec.Phases)
	}
	if spec.Part1Ticks != spec.Phases*spec.PhaseTicks {
		t.Errorf("Part1Ticks = %d", spec.Part1Ticks)
	}
	if spec.EndgameTicks != int(math.Ceil(DefaultEndgameFactor*ln)) {
		t.Errorf("EndgameTicks = %d", spec.EndgameTicks)
	}
	if spec.GadgetSamples < 1 || spec.GadgetSamples > spec.Delta {
		t.Errorf("GadgetSamples = %d outside [1, Delta=%d]", spec.GadgetSamples, spec.Delta)
	}
}

func TestPlanLayoutInvariants(t *testing.T) {
	// Property: for any n, the instruction windows are ordered, disjoint
	// and contained in one phase.
	check := func(raw uint32) bool {
		n := int(raw%1_000_000) + 4
		spec, err := Plan(Config{}, n)
		if err != nil {
			return false
		}
		return spec.CommitOffset == 2*spec.Delta &&
			spec.BPStart == 3*spec.Delta &&
			spec.BPEnd == 4*spec.Delta &&
			spec.GadgetStart == 5*spec.Delta &&
			spec.GadgetStart+spec.GadgetSamples <= 6*spec.Delta &&
			spec.JumpOffset == spec.PhaseTicks-1 &&
			spec.JumpOffset >= spec.GadgetStart+spec.GadgetSamples &&
			0 < spec.CommitOffset &&
			spec.CommitOffset < spec.BPStart
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPlanOverridesAndErrors(t *testing.T) {
	if _, err := Plan(Config{}, 3); err == nil {
		t.Error("n=3 should fail")
	}
	if _, err := Plan(Config{Delta: 1}, 100); err == nil {
		t.Error("Delta=1 should fail")
	}
	if _, err := Plan(Config{Phases: -1}, 100); err == nil {
		t.Error("negative phases should fail")
	}
	spec, err := Plan(Config{Delta: 10, Phases: 3, GadgetSamples: 99, EndgameTicks: 7}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Delta != 10 || spec.Phases != 3 || spec.EndgameTicks != 7 {
		t.Fatalf("overrides ignored: %+v", spec)
	}
	if spec.GadgetSamples != 10 {
		t.Fatalf("GadgetSamples = %d, want clamped to Delta", spec.GadgetSamples)
	}
}

func TestPlanSkipPart1(t *testing.T) {
	spec, err := Plan(Config{SkipPart1: true}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Part1Ticks != 0 || spec.Phases != 0 {
		t.Fatalf("SkipPart1 spec = %+v", spec)
	}
}

// harness builds a ready-to-run config over the complete graph.
func harness(t *testing.T, n int, seed uint64) (graph.Graph, sched.Scheduler, *rng.RNG) {
	t.Helper()
	g, err := graph.NewComplete(n)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.NewSequential(n, rng.At(seed, 0))
	if err != nil {
		t.Fatal(err)
	}
	return g, s, rng.At(seed, 1)
}

func biasedPop(t *testing.T, n, k int, eps float64) *population.Population {
	t.Helper()
	counts, err := population.BiasedCounts(n, k, eps)
	if err != nil {
		t.Fatal(err)
	}
	pop, err := population.FromCounts(counts)
	if err != nil {
		t.Fatal(err)
	}
	return pop
}

func TestRunValidation(t *testing.T) {
	n := 100
	g, s, r := harness(t, n, 1)
	pop := biasedPop(t, n, 2, 1)
	tests := []struct {
		name string
		pop  *population.Population
		cfg  Config
	}{
		{name: "nil population", cfg: Config{Graph: g, Scheduler: s, Rand: r, MaxTime: 1}},
		{name: "nil graph", pop: pop, cfg: Config{Scheduler: s, Rand: r, MaxTime: 1}},
		{name: "nil scheduler", pop: pop, cfg: Config{Graph: g, Rand: r, MaxTime: 1}},
		{name: "nil rand", pop: pop, cfg: Config{Graph: g, Scheduler: s, MaxTime: 1}},
		{name: "zero time", pop: pop, cfg: Config{Graph: g, Scheduler: s, Rand: r}},
		{name: "bad crash fraction", pop: pop, cfg: Config{Graph: g, Scheduler: s, Rand: r, MaxTime: 1, CrashFraction: 1}},
		{name: "bad desync fraction", pop: pop, cfg: Config{Graph: g, Scheduler: s, Rand: r, MaxTime: 1, DesyncFraction: -0.1}},
		{name: "desync without spread", pop: pop, cfg: Config{Graph: g, Scheduler: s, Rand: r, MaxTime: 1, DesyncFraction: 0.1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Run(tt.pop, tt.cfg); err == nil {
				t.Error("want validation error")
			}
		})
	}
}

// TestConvergesToPlurality is the unit-scale version of experiment E6: with
// a (1+ε) multiplicative bias the protocol elects the plurality color.
func TestConvergesToPlurality(t *testing.T) {
	const n, k = 8000, 8
	wins := 0
	const trials = 3
	for trial := 0; trial < trials; trial++ {
		g, s, r := harness(t, n, uint64(100+trial))
		pop := biasedPop(t, n, k, 0.5)
		res, err := Run(pop, Config{
			Graph:     g,
			Scheduler: s,
			Rand:      r,
			MaxTime:   1e5,
		})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !res.Done {
			t.Fatalf("trial %d not done: %+v", trial, res)
		}
		if res.Winner == 0 {
			wins++
		}
		if res.Jumps == 0 {
			t.Error("sync gadget never jumped")
		}
	}
	if wins < trials {
		t.Fatalf("plurality won only %d/%d trials", wins, trials)
	}
}

func TestRunDeterministic(t *testing.T) {
	run := func() Result {
		const n = 2000
		g, s, r := harness(t, n, 7)
		pop := biasedPop(t, n, 4, 1)
		res, err := Run(pop, Config{Graph: g, Scheduler: s, Rand: r, MaxTime: 1e5})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("identical seeds diverged:\n%+v\n%+v", a, b)
	}
}

func TestAlreadyUnanimous(t *testing.T) {
	const n = 100
	g, s, r := harness(t, n, 8)
	pop, err := population.FromCounts([]int64{n})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(pop, Config{Graph: g, Scheduler: s, Rand: r, MaxTime: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done || res.Winner != 0 {
		t.Fatalf("res = %+v", res)
	}
}

func TestNoConsensusBudget(t *testing.T) {
	// A tiny time budget cannot finish; expect ErrNoConsensus.
	const n = 1000
	g, s, r := harness(t, n, 9)
	pop := biasedPop(t, n, 4, 0.5)
	res, err := Run(pop, Config{Graph: g, Scheduler: s, Rand: r, MaxTime: 2})
	if !errors.Is(err, ErrNoConsensus) {
		t.Fatalf("err = %v, want ErrNoConsensus", err)
	}
	if want := "core: no consensus within time budget (budget 2)"; err.Error() != want {
		t.Errorf("err = %q, want %q", err, want)
	}
	if res.Done {
		t.Fatal("cannot be done in 2 time units")
	}
}

// TestAllHaltedBeforeConsensus: a schedule too short for k = 16 colours
// (∆ = 10 at n = 1000) halts every node before consensus. The run ends at
// the last halt with ErrAllHalted, which still matches ErrNoConsensus, and
// its message names the halt time, not a budget.
func TestAllHaltedBeforeConsensus(t *testing.T) {
	const n = 1000
	g, err := graph.NewComplete(n)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.NewPoisson(n, 1, rng.At(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	pop := biasedPop(t, n, 16, 1)
	res, err := Run(pop, Config{Graph: g, Scheduler: s, Rand: rng.At(1, 1), MaxTime: 1e5, Delta: 10})
	if !errors.Is(err, ErrAllHalted) || !errors.Is(err, ErrNoConsensus) {
		t.Fatalf("err = %v, want ErrAllHalted matching ErrNoConsensus", err)
	}
	if want := fmt.Sprintf("core: every live node halted before consensus, the last at time %v", res.Time); err.Error() != want {
		t.Errorf("err = %q, want %q", err, want)
	}
	if res.Done || res.FirstHaltTime <= 0 || res.FirstHaltTime > res.Time || res.Time >= 1e5 {
		t.Errorf("res = %+v, want a run that ended undecided at its last halt", res)
	}
	if errors.Is(ErrNoConsensus, ErrAllHalted) {
		t.Error("an exhausted budget matches ErrAllHalted")
	}
}

// TestSyncGadgetKeepsNodesSynchronized is the unit-scale version of
// experiment E7: with the gadget on, at every probe the fraction of poorly
// synchronized nodes (working time more than ∆ from the median) stays
// small.
func TestSyncGadgetKeepsNodesSynchronized(t *testing.T) {
	const n = 5000
	g, s, r := harness(t, n, 10)
	pop := biasedPop(t, n, 4, 0.5)
	var worstPoorFrac float64
	probes := 0
	_, err := Run(pop, Config{
		Graph:         g,
		Scheduler:     s,
		Rand:          r,
		MaxTime:       1e5,
		ProbeInterval: 5,
		OnProbe: func(p Probe) {
			probes++
			if p.Active == 0 {
				return
			}
			frac := float64(p.PoorlySynced) / float64(p.Active)
			if frac > worstPoorFrac {
				worstPoorFrac = frac
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if probes == 0 {
		t.Fatal("no probes delivered")
	}
	if worstPoorFrac > 0.10 {
		t.Fatalf("poorly synced fraction peaked at %.3f, want <= 0.10", worstPoorFrac)
	}
}

// TestSyncGadgetRecoversFromDesync: with o(n) nodes starting adversarially
// desynchronized by up to two whole phases, the gadget must pull them back
// into the bulk schedule and the protocol must still converge to the
// plurality — the paper's "poorly synchronized nodes" tolerance in action.
func TestSyncGadgetRecoversFromDesync(t *testing.T) {
	const n = 5000
	g, s, r := harness(t, n, 11)
	pop := biasedPop(t, n, 4, 1)
	spec, err := Plan(Config{}, n)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(pop, Config{
		Graph:          g,
		Scheduler:      s,
		Rand:           r,
		MaxTime:        1e5,
		DesyncFraction: 0.05,
		DesyncSpread:   2 * spec.PhaseTicks,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done || res.Winner != 0 {
		t.Fatalf("did not recover from desync: %+v", res)
	}
	if res.Jumps == 0 {
		t.Fatal("gadget never fired")
	}
}

// TestGadgetAblationDrifts: without the sync gadget the working-time spread
// grows with time; with it, the spread stays bounded. This is experiment
// E7's core comparison at unit scale.
func TestGadgetAblationDrifts(t *testing.T) {
	const n = 3000
	maxSpread := func(disable bool) int64 {
		g, s, r := harness(t, n, 12)
		pop := biasedPop(t, n, 2, 1)
		var worst int64
		cfg := Config{
			Graph:             g,
			Scheduler:         s,
			Rand:              r,
			MaxTime:           1e5,
			DisableSyncGadget: disable,
			Phases:            12, // long part 1 so drift has time to show
			ProbeInterval:     5,
			OnProbe: func(p Probe) {
				if p.Spread90 > worst {
					worst = p.Spread90
				}
			},
		}
		// Without the gadget consensus may still happen (two-choices is
		// robust for k=2); we only compare observed spreads.
		res, err := Run(pop, cfg)
		if err != nil && !errors.Is(err, ErrNoConsensus) {
			t.Fatal(err)
		}
		_ = res
		return worst
	}
	withGadget := maxSpread(false)
	withoutGadget := maxSpread(true)
	if withoutGadget <= withGadget {
		t.Fatalf("ablation: spread with gadget %d, without %d — gadget shows no benefit",
			withGadget, withoutGadget)
	}
}

// TestEndgameSafety is the unit-scale version of experiment E9: starting
// from c_1 ≥ (1−ε)n and running part 2 only, consensus must land before the
// first node halts.
func TestEndgameSafety(t *testing.T) {
	const n = 10000
	for trial := 0; trial < 3; trial++ {
		g, s, r := harness(t, n, uint64(200+trial))
		pop, err := population.FromCounts([]int64{int64(n) * 9 / 10, int64(n) / 10})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(pop, Config{
			Graph:     g,
			Scheduler: s,
			Rand:      r,
			MaxTime:   1e5,
			SkipPart1: true,
			RunToHalt: true,
		})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !res.Done || res.Winner != 0 {
			t.Fatalf("trial %d failed: %+v", trial, res)
		}
		if !res.EndgameSafe {
			t.Fatalf("trial %d: consensus at %.2f after first halt at %.2f",
				trial, res.ConsensusTime, res.FirstHaltTime)
		}
		if res.FirstHaltTime == 0 {
			t.Fatalf("trial %d: RunToHalt produced no halts", trial)
		}
	}
}

// TestCrashTolerance: with o(n) crashed nodes the live nodes still reach
// consensus on the plurality color.
func TestCrashTolerance(t *testing.T) {
	const n = 6000
	g, s, r := harness(t, n, 13)
	pop := biasedPop(t, n, 4, 1)
	res, err := Run(pop, Config{
		Graph:         g,
		Scheduler:     s,
		Rand:          r,
		MaxTime:       1e5,
		CrashFraction: 0.01,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done || res.Winner != 0 {
		t.Fatalf("crash run failed: %+v", res)
	}
	// Live consensus means overall count is at least (1-fraction)·n.
	if pop.Count(0) < int64(0.98*n) {
		t.Fatalf("live consensus but only %d/%d hold the winner", pop.Count(0), n)
	}
}

// TestResponseDelays is the unit-scale version of experiment E12: with
// Exp(θ) response delays the protocol still converges to the plurality,
// only a constant factor slower.
func TestResponseDelays(t *testing.T) {
	const n = 5000
	runWith := func(delay sched.DelayModel) Result {
		g, s, r := harness(t, n, 14)
		pop := biasedPop(t, n, 4, 1)
		res, err := Run(pop, Config{
			Graph:     g,
			Scheduler: s,
			Rand:      r,
			MaxTime:   1e5,
			Delay:     delay,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	instant := runWith(nil)
	delayed := runWith(sched.ExpDelay{Rate: 1})
	if !delayed.Done || delayed.Winner != 0 {
		t.Fatalf("delayed run failed: %+v", delayed)
	}
	if delayed.ConsensusTime <= instant.ConsensusTime {
		t.Fatalf("delays made the run faster? instant %.1f, delayed %.1f",
			instant.ConsensusTime, delayed.ConsensusTime)
	}
	// Constant-factor slowdown, not blowup.
	if delayed.ConsensusTime > 6*instant.ConsensusTime {
		t.Fatalf("delayed run %.1f >> instant %.1f — more than constant-factor slowdown",
			delayed.ConsensusTime, instant.ConsensusTime)
	}
}

// TestPoissonEngineAgrees is the unit-scale version of experiment E11: the
// sequential and continuous engines give comparable convergence times.
func TestPoissonEngineAgrees(t *testing.T) {
	const n = 4000
	runOn := func(mk func() (sched.Scheduler, error)) float64 {
		s, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		g, err := graph.NewComplete(n)
		if err != nil {
			t.Fatal(err)
		}
		pop := biasedPop(t, n, 4, 1)
		res, err := Run(pop, Config{
			Graph:     g,
			Scheduler: s,
			Rand:      rng.At(15, 1),
			MaxTime:   1e5,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Done {
			t.Fatal("not done")
		}
		return res.ConsensusTime
	}
	seqTime := runOn(func() (sched.Scheduler, error) { return sched.NewSequential(n, rng.At(15, 0)) })
	poiTime := runOn(func() (sched.Scheduler, error) { return sched.NewPoisson(n, 1, rng.At(15, 0)) })
	ratio := seqTime / poiTime
	if ratio < 0.5 || ratio > 2 {
		t.Fatalf("engines disagree: sequential %.1f vs poisson %.1f", seqTime, poiTime)
	}
}

func TestProbeFields(t *testing.T) {
	const n = 1000
	g, s, r := harness(t, n, 16)
	pop := biasedPop(t, n, 2, 1)
	var got []Probe
	_, err := Run(pop, Config{
		Graph:         g,
		Scheduler:     s,
		Rand:          r,
		MaxTime:       1e5,
		ProbeInterval: 10,
		OnProbe:       func(p Probe) { got = append(got, p) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("no probes")
	}
	first := got[0]
	if first.Active != n || first.Halted != 0 {
		t.Fatalf("first probe %+v", first)
	}
	for i, p := range got {
		if p.PluralityFraction <= 0 || p.PluralityFraction > 1 {
			t.Fatalf("probe %d: bad plurality fraction %v", i, p.PluralityFraction)
		}
		if p.Spread90 < 0 || p.MaxAbsDev < p.Spread90/2 {
			t.Fatalf("probe %d: inconsistent spreads %+v", i, p)
		}
		if i > 0 && p.Time <= got[i-1].Time {
			t.Fatalf("probe times not increasing")
		}
	}
	// Plurality support must grow over the run.
	if last := got[len(got)-1]; last.PluralityFraction <= first.PluralityFraction {
		t.Fatalf("plurality fraction did not grow: %.3f -> %.3f",
			first.PluralityFraction, last.PluralityFraction)
	}
}

// TestActionTableMatchesSchedule pins the part-1 action table to the
// schedule layout it encodes: every in-phase offset carries the
// instruction the Spec's offsets assign it, with the Two-Choices step, the
// commit, Bit-Propagation, gadget sampling and the jump taking precedence
// in that order, and padding everywhere else.
func TestActionTableMatchesSchedule(t *testing.T) {
	for _, n := range []int{16, 1000, 100_000, 10_000_000} {
		for _, cfg := range []Config{{}, {DisableSyncGadget: true}, {Delta: 2}, {Delta: 3, GadgetSamples: 3}, {DeltaFactor: 1}} {
			spec, err := Plan(cfg, n)
			if err != nil {
				t.Fatal(err)
			}
			actions := buildActions(nil, spec, cfg.DisableSyncGadget)
			if len(actions) != spec.PhaseTicks {
				t.Fatalf("n=%d %+v: %d actions for a %d-tick phase", n, cfg, len(actions), spec.PhaseTicks)
			}
			for pos, got := range actions {
				want := actWait
				switch {
				case pos == 0:
					want = actTwoChoices
				case pos == spec.CommitOffset:
					want = actCommit
				case pos >= spec.BPStart && pos < spec.BPEnd:
					want = actPropagate
				case !cfg.DisableSyncGadget && pos >= spec.GadgetStart && pos < spec.GadgetStart+spec.GadgetSamples:
					want = actGadgetSample
				case !cfg.DisableSyncGadget && pos == spec.JumpOffset:
					want = actJump
				}
				if got != want {
					t.Fatalf("n=%d %+v: offset %d has action %d, want %d", n, cfg, pos, got, want)
				}
			}
		}
	}
}

// TestSelectKthMatchesSort: selection puts at every index k the value
// sorting would, keeps smaller-or-equal values before it and
// larger-or-equal ones after it, and only permutes the input — on inputs
// with many ties, with none, and already sorted either way.
func TestSelectKthMatchesSort(t *testing.T) {
	r := rng.New(4)
	for trial := 0; trial < 400; trial++ {
		n := 1 + r.Intn(64)
		in := make([]int32, n)
		for i := range in {
			switch trial % 4 {
			case 0:
				in[i] = int32(r.Intn(3)) - 1
			case 1:
				in[i] = int32(r.Uint64())
			case 2:
				in[i] = int32(i)
			default:
				in[i] = int32(n - i)
			}
		}
		sorted := slices.Clone(in)
		slices.Sort(sorted)
		for k := 0; k < n; k++ {
			buf := slices.Clone(in)
			selectKth(buf, k)
			if buf[k] != sorted[k] {
				t.Fatalf("%v: selectKth(%d) put %d there, sorting puts %d", in, k, buf[k], sorted[k])
			}
			for i, v := range buf {
				if (i < k && v > buf[k]) || (i > k && v < buf[k]) {
					t.Fatalf("%v: selectKth(%d) left %d at %d on the wrong side of %d", in, k, v, i, buf[k])
				}
			}
			slices.Sort(buf)
			if !slices.Equal(buf, sorted) {
				t.Fatalf("%v: selectKth(%d) changed the multiset", in, k)
			}
		}
	}
}
