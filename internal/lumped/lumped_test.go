package lumped_test

import (
	"errors"
	"strings"
	"testing"

	"plurality/internal/graph"
	"plurality/internal/lumped"
	"plurality/internal/occupancy"
	"plurality/internal/population"
	"plurality/internal/protocols/dynamics"
	"plurality/internal/protocols/threemajority"
	"plurality/internal/protocols/twochoices"
	"plurality/internal/protocols/usd"
	"plurality/internal/protocols/voter"
	"plurality/internal/rng"
	"plurality/internal/sched"
	"plurality/internal/stats"
)

// buildPop assigns the per-class color rows of m into a fresh per-node
// population laid out on the Classed graph's contiguous class ranges.
func buildPop(t *testing.T, classes []graph.Class, m [][]int64) *population.Population {
	t.Helper()
	var n int64
	for _, cl := range classes {
		n += cl.Count
	}
	k := len(m[0])
	pop, err := population.New(int(n), k)
	if err != nil {
		t.Fatal(err)
	}
	u := 0
	for a := range classes {
		for c := 0; c < k; c++ {
			for i := int64(0); i < m[a][c]; i++ {
				pop.SetColor(u, population.Color(c))
				u++
			}
		}
	}
	if u != int(n) {
		t.Fatalf("matrix rows sum to %d nodes, classes to %d", u, n)
	}
	return pop
}

func flat(m [][]int64) []int64 {
	var out []int64
	for _, row := range m {
		out = append(out, row...)
	}
	return out
}

func poisson(t *testing.T, n int64, seed uint64) sched.Scheduler {
	t.Helper()
	s, err := sched.NewPoisson(int(n), 1, rng.At(seed, 0))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// lumpedTimes collects consensus-time and tick-count samples from the
// lumped engine on the given class partition.
func lumpedTimes(t *testing.T, classes []graph.Class, m [][]int64, rule occupancy.Rule, trials int, seedBase uint64, forceMatrix bool) (times, ticks []float64) {
	t.Helper()
	var n int64
	for _, cl := range classes {
		n += cl.Count
	}
	var rn lumped.Runner
	for i := 0; i < trials; i++ {
		seed := seedBase + uint64(i)
		cnt := flat(m)
		res, err := rn.Run(cnt, nil, rule, lumped.Config{
			Classes:     classes,
			Scheduler:   poisson(t, n, seed),
			Rand:        rng.At(seed, 1),
			MaxTime:     1e6,
			ForceMatrix: forceMatrix,
		})
		if err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
		if !res.Done {
			t.Fatalf("trial %d did not converge", i)
		}
		times = append(times, res.Time)
		ticks = append(ticks, float64(res.Ticks))
	}
	return times, ticks
}

// perNodeTimes collects the per-node oracle's samples on the same annealed
// topology and initial matrix.
func perNodeTimes(t *testing.T, g graph.Classed, m [][]int64, rule dynamics.Rule, trials int, seedBase uint64) (times, ticks []float64) {
	t.Helper()
	classes := g.Classes()
	for i := 0; i < trials; i++ {
		seed := seedBase + uint64(i)
		pop := buildPop(t, classes, m)
		res, err := dynamics.RunAsync(pop, rule, dynamics.AsyncConfig{
			Graph:     g,
			Scheduler: poisson(t, int64(g.N()), seed),
			Rand:      rng.At(seed, 1),
			MaxTime:   1e6,
			Engine:    dynamics.EnginePerNode,
		})
		if err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
		if !res.Done {
			t.Fatalf("trial %d did not converge", i)
		}
		times = append(times, res.Time)
		ticks = append(ticks, float64(res.Ticks))
		if i == 0 && !pop.IsUnanimous() {
			t.Fatal("per-node run finished non-unanimous")
		}
	}
	return times, ticks
}

func ksGate(t *testing.T, label string, a, b []float64, trials int) {
	t.Helper()
	thresh := stats.KSThreshold(0.001, trials, trials) + 1.0/240
	if d := stats.KSStatistic(a, b); d > thresh {
		t.Errorf("%s: KS %.4f > %.4f", label, d, thresh)
	}
}

// TestLumpedMatchesPerNodeRegular is the acceptance gate for the lumped
// collapse on the vertex-transitive families: on the annealed forms of the
// cycle (d=2), torus (d=4) and random regular graph (d=8), the lumped
// engine's consensus-time and tick-count distributions must be
// KS-indistinguishable from the per-node engine running on the same
// annealed topology. Fixed seeds: a failure means the collapse or the
// delegation is wrong, not bad luck.
func TestLumpedMatchesPerNodeRegular(t *testing.T) {
	const trials = 200
	const n = 192
	m := [][]int64{{120, 72}}
	for _, d := range []int{2, 4, 8} {
		g, err := graph.NewAnnealedRegular(n, d)
		if err != nil {
			t.Fatal(err)
		}
		rule := twochoices.Rule{}
		lt, lm := lumpedTimes(t, g.Classes(), m, rule, trials, 9000+uint64(d), false)
		pt, pm := perNodeTimes(t, g, m, rule, trials, 4000+uint64(d))
		ksGate(t, "annealed regular times", lt, pt, trials)
		ksGate(t, "annealed regular ticks", lm, pm, trials)
	}
}

// TestLumpedMatchesPerNodeMultiClass gates the matrix path: on a two-class
// annealed configuration model (the lumped form of a degree-partitioned
// G(n,p)), the (class × color) engine must match the per-node engine on
// the same topology for every rule family it hosts.
func TestLumpedMatchesPerNodeMultiClass(t *testing.T) {
	const trials = 200
	classes := []graph.Class{{Degree: 3, Count: 96}, {Degree: 9, Count: 96}}
	g, err := graph.NewAnnealed(classes)
	if err != nil {
		t.Fatal(err)
	}
	m := [][]int64{{60, 36}, {56, 40}}
	for _, tc := range []struct {
		name string
		rule interface {
			Name() string
			SampleCount() int
			Next(*rng.RNG, population.Color, []population.Color) population.Color
		}
	}{
		{"two-choices", twochoices.Rule{}},
		{"voter", voter.Rule{}},
		{"3-majority", threemajority.Rule{}},
	} {
		lt, lm := lumpedTimes(t, classes, m, tc.rule, trials, 17000, false)
		pt, pm := perNodeTimes(t, g, m, tc.rule, trials, 23000)
		ksGate(t, tc.name+" times", lt, pt, trials)
		ksGate(t, tc.name+" ticks", lm, pm, trials)
	}
}

// TestSingleClassDelegationMatchesMatrix compares the two lumped paths on
// the same single-class input: the occupancy delegation (closed-form
// kernels, geometric skips) and the forced matrix engine must be
// distribution-identical.
func TestSingleClassDelegationMatchesMatrix(t *testing.T) {
	const trials = 200
	classes := []graph.Class{{Degree: 4, Count: 240}}
	m := [][]int64{{150, 90}}
	for _, rule := range []occupancy.Rule{twochoices.Rule{}, voter.Rule{}} {
		dt, dm := lumpedTimes(t, classes, m, rule, trials, 31000, false)
		mt, mm := lumpedTimes(t, classes, m, rule, trials, 37000, true)
		ksGate(t, rule.Name()+" times", dt, mt, trials)
		ksGate(t, rule.Name()+" ticks", dm, mm, trials)
	}
}

// TestLumpedUSDUndecidedColumn runs Undecided-State Dynamics through the
// matrix path: the hidden undecided column must track per-class undecided
// counts, preserve row sums, and match the per-node USD engine's
// consensus-time distribution on the same two-class annealed topology.
func TestLumpedUSDUndecidedColumn(t *testing.T) {
	const trials = 150
	classes := []graph.Class{{Degree: 2, Count: 80}, {Degree: 6, Count: 80}}
	g, err := graph.NewAnnealed(classes)
	if err != nil {
		t.Fatal(err)
	}
	m := [][]int64{{50, 30}, {46, 34}}
	rule := usd.Rule{}

	var rn lumped.Runner
	var times []float64
	for i := 0; i < trials; i++ {
		seed := 41000 + uint64(i)
		cnt := flat(m)
		und := make([]int64, len(classes))
		res, err := rn.Run(cnt, und, rule, lumped.Config{
			Classes:   classes,
			Scheduler: poisson(t, int64(g.N()), seed),
			Rand:      rng.At(seed, 1),
			MaxTime:   1e6,
		})
		if err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
		if !res.Done {
			t.Fatalf("trial %d did not converge", i)
		}
		for a, cl := range classes {
			var row int64
			for c := 0; c < 2; c++ {
				row += cnt[a*2+c]
			}
			if row+und[a] != cl.Count {
				t.Fatalf("trial %d: class %d row %d + undecided %d != count %d", i, a, row, und[a], cl.Count)
			}
		}
		times = append(times, res.Time)
	}
	pt, _ := perNodeTimes(t, g, m, rule, trials, 43000)
	ksGate(t, "usd times", times, pt, trials)
}

// TestLumpedChurn: churn events must keep the class partition invariant
// (joiners stay in their node's class) while perturbing the matrix.
func TestLumpedChurn(t *testing.T) {
	classes := []graph.Class{{Degree: 3, Count: 60}, {Degree: 5, Count: 60}}
	m := flat([][]int64{{40, 20}, {30, 30}})
	res, err := lumped.Run(m, nil, voter.Rule{}, lumped.Config{
		Classes:   classes,
		Scheduler: poisson(t, 120, 7),
		Rand:      rng.At(7, 1),
		MaxTime:   200,
		Churn:     0.05,
	})
	if err != nil && !errors.Is(err, occupancy.ErrTimeLimit) {
		t.Fatal(err)
	}
	if res.Churns == 0 {
		t.Error("no churn events at rate 0.05")
	}
	for a, cl := range classes {
		row := m[a*2] + m[a*2+1]
		if row != cl.Count {
			t.Errorf("class %d row %d != count %d after churn", a, row, cl.Count)
		}
	}
}

// TestLumpedDeterministic: identical seeds must give identical results.
func TestLumpedDeterministic(t *testing.T) {
	classes := []graph.Class{{Degree: 2, Count: 50}, {Degree: 4, Count: 50}}
	run := func() occupancy.Result {
		m := flat([][]int64{{30, 20}, {25, 25}})
		res, err := lumped.Run(m, nil, twochoices.Rule{}, lumped.Config{
			Classes:   classes,
			Scheduler: poisson(t, 100, 99),
			Rand:      rng.At(99, 1),
			MaxTime:   1e6,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed diverged: %+v != %+v", a, b)
	}
}

// TestLumpedObserveAndStop covers the streaming observer and the stop hook
// on the matrix path.
func TestLumpedObserveAndStop(t *testing.T) {
	classes := []graph.Class{{Degree: 2, Count: 60}, {Degree: 4, Count: 60}}
	var snaps int
	var lastTime float64
	m := flat([][]int64{{40, 20}, {30, 30}})
	res, err := lumped.Run(m, nil, twochoices.Rule{}, lumped.Config{
		Classes:         classes,
		Scheduler:       poisson(t, 120, 11),
		Rand:            rng.At(11, 1),
		MaxTime:         1e6,
		ObserveInterval: 0.5,
		OnObserve: func(s occupancy.Snapshot) {
			if s.Time < lastTime {
				t.Errorf("snapshot times regressed: %v after %v", s.Time, lastTime)
			}
			lastTime = s.Time
			var tot int64
			for _, v := range s.Counts {
				tot += v
			}
			if tot+s.Undecided != 120 {
				t.Errorf("snapshot counts sum to %d", tot+s.Undecided)
			}
			snaps++
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if snaps == 0 {
		t.Error("no snapshots delivered")
	}
	if !res.Done {
		t.Error("run did not converge")
	}

	m = flat([][]int64{{40, 20}, {30, 30}})
	_, err = lumped.Run(m, nil, twochoices.Rule{}, lumped.Config{
		Classes:   classes,
		Scheduler: poisson(t, 120, 12),
		Rand:      rng.At(12, 1),
		MaxTime:   1e6,
		Stop:      func() bool { return true },
	})
	if !errors.Is(err, occupancy.ErrStopped) {
		t.Fatalf("stop hook: err = %v, want ErrStopped", err)
	}
}

// TestLumpedValidation covers the input contract.
func TestLumpedValidation(t *testing.T) {
	classes := []graph.Class{{Degree: 2, Count: 10}, {Degree: 4, Count: 10}}
	good := func() lumped.Config {
		return lumped.Config{
			Classes:   classes,
			Scheduler: poisson(t, 20, 1),
			Rand:      rng.At(1, 1),
			MaxTime:   100,
		}
	}
	ok := flat([][]int64{{6, 4}, {5, 5}})
	for _, tc := range []struct {
		name string
		m    []int64
		und  []int64
		rule occupancy.Rule
		mut  func(*lumped.Config)
		want string // a substring of the error, when set
	}{
		{name: "nil rule", m: ok, rule: nil},
		{name: "no classes", m: ok, rule: voter.Rule{}, mut: func(c *lumped.Config) { c.Classes = nil }},
		{name: "matrix shape", m: ok[:3], rule: voter.Rule{}},
		{name: "negative count", m: []int64{-1, 11, 5, 5}, rule: voter.Rule{}},
		{name: "row sum mismatch", m: []int64{6, 5, 5, 5}, rule: voter.Rule{}},
		{name: "undecided without rule", m: []int64{6, 3, 5, 5}, und: []int64{1, 0}, rule: voter.Rule{}},
		{name: "undecided length", m: ok, und: []int64{0}, rule: usd.Rule{}},
		{name: "nil scheduler", m: ok, rule: voter.Rule{}, mut: func(c *lumped.Config) { c.Scheduler = nil }},
		{name: "no NextTimes", m: ok, rule: voter.Rule{}, mut: func(c *lumped.Config) { c.Scheduler, _ = sched.NewHeapPoisson(20, 1, rng.At(1, 0)) },
			want: "scheduler *sched.HeapPoisson has no NextTimes"},
		{name: "scheduler size", m: ok, rule: voter.Rule{}, mut: func(c *lumped.Config) { c.Scheduler = poisson(t, 21, 1) }},
		{name: "nil rand", m: ok, rule: voter.Rule{}, mut: func(c *lumped.Config) { c.Rand = nil }},
		{name: "max time", m: ok, rule: voter.Rule{}, mut: func(c *lumped.Config) { c.MaxTime = 0 }},
		{name: "churn range", m: ok, rule: voter.Rule{}, mut: func(c *lumped.Config) { c.Churn = 1 }},
	} {
		cfg := good()
		if tc.mut != nil {
			tc.mut(&cfg)
		}
		mm := append([]int64(nil), tc.m...)
		if _, err := lumped.Run(mm, tc.und, tc.rule, cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

// TestLumpedAlreadyUnanimous: a matrix already at consensus returns Done
// without consuming the scheduler.
func TestLumpedAlreadyUnanimous(t *testing.T) {
	classes := []graph.Class{{Degree: 2, Count: 10}, {Degree: 4, Count: 10}}
	m := flat([][]int64{{10, 0}, {10, 0}})
	res, err := lumped.Run(m, nil, voter.Rule{}, lumped.Config{
		Classes:     classes,
		Scheduler:   poisson(t, 20, 3),
		Rand:        rng.At(3, 1),
		MaxTime:     100,
		ForceMatrix: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done || res.Winner != 0 || res.Ticks != 0 {
		t.Fatalf("unexpected result %+v", res)
	}
}
