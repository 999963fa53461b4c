package occupancy

import (
	"errors"
	"strings"
	"testing"

	"plurality/internal/population"
	"plurality/internal/rng"
	"plurality/internal/sched"
	"plurality/internal/stats"
)

// dynRule adapts the locally rebuilt rules (see kernel_test.go) to the
// engine's Rule + Kerneled interfaces.
type dynRule struct{ tr testRule }

func (d dynRule) Name() string     { return d.tr.name }
func (d dynRule) SampleCount() int { return d.tr.s }
func (d dynRule) Next(_ *rng.RNG, own population.Color, sampled []population.Color) population.Color {
	return d.tr.next(own, sampled)
}
func (d dynRule) OccupancyKernel() Kernel { return d.tr.kern }

func mkSched(t testing.TB, model string, n int64, seed uint64) sched.Scheduler {
	t.Helper()
	var (
		s   sched.Scheduler
		err error
	)
	switch model {
	case "sequential":
		s, err = sched.NewSequential(int(n), rng.At(seed, 0))
	case "poisson":
		s, err = sched.NewPoisson(int(n), 1, rng.At(seed, 0))
	case "heap-poisson":
		s, err = sched.NewHeapPoisson(int(n), 1, rng.At(seed, 0))
	default:
		t.Fatalf("unknown model %q", model)
	}
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func twoChoicesRule() dynRule    { return dynRule{builtinRules()[0]} }
func voterRule() dynRule         { return dynRule{builtinRules()[1]} }
func threeMajorityRule() dynRule { return dynRule{builtinRules()[2]} }

func TestRunReachesConsensus(t *testing.T) {
	for _, model := range []string{"sequential", "poisson"} {
		for _, rule := range []Rule{twoChoicesRule(), voterRule(), threeMajorityRule()} {
			counts := []int64{600, 300, 300}
			res, err := Run(counts, rule, Config{
				Scheduler: mkSched(t, model, 1200, 7),
				Rand:      rng.At(7, 1),
				MaxTime:   1e6,
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", model, rule.Name(), err)
			}
			if !res.Done || res.Ticks <= 0 || res.Time <= 0 {
				t.Fatalf("%s/%s: %+v", model, rule.Name(), res)
			}
			won := false
			for c, v := range counts {
				if v == 1200 && population.Color(c) == res.Winner {
					won = true
				} else if v != 0 {
					t.Fatalf("%s/%s: final histogram %v not a consensus", model, rule.Name(), counts)
				}
			}
			if !won {
				t.Fatalf("%s/%s: winner %d does not match histogram %v", model, rule.Name(), res.Winner, counts)
			}
		}
	}
}

func TestRunInitialConsensus(t *testing.T) {
	counts := []int64{0, 50, 0}
	res, err := Run(counts, twoChoicesRule(), Config{
		Scheduler: mkSched(t, "poisson", 50, 1),
		Rand:      rng.At(1, 1),
		MaxTime:   10,
	})
	if err != nil || !res.Done || res.Winner != 1 || res.Ticks != 0 {
		t.Fatalf("res = %+v, err = %v", res, err)
	}
}

func TestRunTimeout(t *testing.T) {
	for _, model := range []string{"sequential", "poisson"} {
		for _, force := range []bool{false, true} {
			counts := []int64{600, 600}
			res, err := Run(counts, twoChoicesRule(), Config{
				Scheduler: mkSched(t, model, 1200, 3),
				Rand:      rng.At(3, 1),
				MaxTime:   0.25, // ~300 ticks: far too few for consensus at n=1200
				ForceTick: force,
			})
			if !errors.Is(err, ErrTimeLimit) {
				t.Fatalf("%s force=%v: err = %v, want ErrTimeLimit", model, force, err)
			}
			if res.Done {
				t.Fatalf("%s force=%v: Done on a timeout: %+v", model, force, res)
			}
			if res.Ticks <= 0 || res.Time > 0.25 || res.Time < 0 {
				t.Fatalf("%s force=%v: implausible timeout bookkeeping %+v", model, force, res)
			}
			var total int64
			for _, v := range counts {
				total += v
			}
			if total != 1200 {
				t.Fatalf("%s force=%v: histogram no longer sums to n: %v", model, force, counts)
			}
		}
	}
}

// TestHugeMaxTimeFallsBackToTickMode: an effectively-unbounded MaxTime
// (n·MaxTime beyond the int64 tick counters) must not overflow the leap
// budget — the run falls back to tick mode and still converges, under both
// leapable time models.
func TestHugeMaxTimeFallsBackToTickMode(t *testing.T) {
	for _, model := range []string{"sequential", "poisson"} {
		counts := []int64{60, 40}
		res, err := Run(counts, twoChoicesRule(), Config{
			Scheduler: mkSched(t, model, 100, 21),
			Rand:      rng.At(21, 1),
			MaxTime:   1e18,
		})
		if err != nil {
			t.Fatalf("%s: %v", model, err)
		}
		if !res.Done || res.Ticks <= 0 || res.Time < 0 {
			t.Fatalf("%s: %+v", model, res)
		}
	}
}

func TestRunValidation(t *testing.T) {
	good := Config{Scheduler: mkSched(t, "sequential", 10, 1), Rand: rng.New(1), MaxTime: 1}
	cases := []struct {
		name   string
		counts []int64
		cfg    Config
		want   string
	}{
		{"nil-rand", []int64{5, 5}, Config{Scheduler: good.Scheduler, MaxTime: 1}, "nil rand"},
		{"nil-sched", []int64{5, 5}, Config{Rand: good.Rand, MaxTime: 1}, "nil scheduler"},
		{"no-next-times", []int64{5, 5}, Config{Scheduler: mkSched(t, "heap-poisson", 10, 1), Rand: good.Rand, MaxTime: 1},
			"scheduler *sched.HeapPoisson has no NextTimes"},
		{"bad-maxtime", []int64{5, 5}, Config{Scheduler: good.Scheduler, Rand: good.Rand}, "MaxTime"},
		{"bad-churn", []int64{5, 5}, Config{Scheduler: good.Scheduler, Rand: good.Rand, MaxTime: 1, Churn: 1}, "Churn"},
		{"negative-count", []int64{11, -1}, good, "negative count"},
		{"empty", nil, good, "empty histogram"},
		{"sched-mismatch", []int64{5, 6}, good, "scheduler has 10 nodes"},
	}
	for _, tc := range cases {
		if _, err := Run(tc.counts, twoChoicesRule(), tc.cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	run := func() Result {
		counts := []int64{500, 250, 250}
		res, err := Run(counts, threeMajorityRule(), Config{
			Scheduler: mkSched(t, "poisson", 1000, 11),
			Rand:      rng.At(11, 1),
			MaxTime:   1e6,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed diverged: %+v != %+v", a, b)
	}
}

// collectTimes runs trials independent occupancy runs and returns the
// consensus times and tick counts.
func collectTimes(t *testing.T, rule Rule, model string, counts []int64, trials int, seedBase uint64, forceTick bool) (times, ticks []float64) {
	t.Helper()
	var n int64
	for _, v := range counts {
		n += v
	}
	var rn Runner
	for i := 0; i < trials; i++ {
		cs := append([]int64(nil), counts...)
		seed := seedBase + uint64(i)
		res, err := rn.Run(cs, rule, Config{
			Scheduler: mkSched(t, model, n, seed),
			Rand:      rng.At(seed, 1),
			MaxTime:   1e6,
			ForceTick: forceTick,
		})
		if err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
		times = append(times, res.Time)
		ticks = append(ticks, float64(res.Ticks))
	}
	return times, ticks
}

// TestLeapMatchesTickDistribution is the in-package half of the
// distributional-equivalence gate: for every kerneled rule and both leapable
// time models, the leap engine's consensus-time and tick-count samples must
// be KS-indistinguishable from the tick engine's. Fixed seeds: a failure
// means the geometric skip, the kernel, or the order-statistic time
// materialization is wrong — not bad luck.
func TestLeapMatchesTickDistribution(t *testing.T) {
	const trials = 220
	counts := []int64{120, 60, 60}
	for _, model := range []string{"sequential", "poisson"} {
		for _, rule := range []Rule{twoChoicesRule(), voterRule(), threeMajorityRule()} {
			leapT, leapM := collectTimes(t, rule, model, counts, trials, 1000, false)
			tickT, tickM := collectTimes(t, rule, model, counts, trials, 5000, true)
			thresh := stats.KSThreshold(0.001, trials, trials) + 1.0/240
			if d := stats.KSStatistic(leapT, tickT); d > thresh {
				t.Errorf("%s/%s: consensus-time KS %.4f > %.4f", model, rule.Name(), d, thresh)
			}
			if d := stats.KSStatistic(leapM, tickM); d > thresh {
				t.Errorf("%s/%s: tick-count KS %.4f > %.4f", model, rule.Name(), d, thresh)
			}
		}
	}
}

// TestVoterWinnerMartingale exploits the Voter chain's exact invariant: the
// probability that color c wins equals its initial share, with no
// approximation. Chi-square of observed winners against n_c/n at the 99.9th
// percentile, for both engine modes.
func TestVoterWinnerMartingale(t *testing.T) {
	counts := []int64{100, 60, 40}
	const trials = 600
	for _, force := range []bool{false, true} {
		observed := make([]int, 3)
		var rn Runner
		for i := 0; i < trials; i++ {
			cs := append([]int64(nil), counts...)
			seed := 40_000 + uint64(i)
			res, err := rn.Run(cs, voterRule(), Config{
				Scheduler: mkSched(t, "sequential", 200, seed),
				Rand:      rng.At(seed, 1),
				MaxTime:   1e6,
				ForceTick: force,
			})
			if err != nil || !res.Done {
				t.Fatalf("trial %d: res=%+v err=%v", i, res, err)
			}
			observed[res.Winner]++
		}
		var stat float64
		for c, v := range counts {
			expected := float64(v) / 200 * trials
			d := float64(observed[c]) - expected
			stat += d * d / expected
		}
		// df = 2, 99.9th percentile = 13.8.
		if stat > 13.8 {
			t.Errorf("forceTick=%v: winner chi-square %.1f > 13.8 (observed %v, counts %v)",
				force, stat, observed, counts)
		}
	}
}

// noneRule emits population.None without declaring an undecided state —
// the contract violation the tick engine must fail loudly on instead of
// silently diverging from the per-node engines' go-undecided semantics.
type noneRule struct{}

func (noneRule) Name() string     { return "none-emitter" }
func (noneRule) SampleCount() int { return 1 }
func (noneRule) Next(*rng.RNG, population.Color, []population.Color) population.Color {
	return population.None
}

func TestTickModeRejectsUndeclaredNone(t *testing.T) {
	counts := []int64{5, 5}
	_, err := Run(counts, noneRule{}, Config{
		Scheduler: mkSched(t, "poisson", 10, 1),
		Rand:      rng.At(1, 1),
		MaxTime:   10,
	})
	if err == nil || !strings.Contains(err.Error(), "occupancy.Undecided") {
		t.Fatalf("err = %v, want the undeclared-None contract error", err)
	}
}

// TestRunnerZeroSteadyStateAllocs guards the O(k)-memory claim at the
// allocation level: with a warm Runner, neither engine mode may allocate
// anything beyond the per-run scheduler and RNG streams.
func TestRunnerZeroSteadyStateAllocs(t *testing.T) {
	for _, force := range []bool{false, true} {
		var rn Runner
		run := func() {
			counts := [4]int64{400, 200, 200, 200}
			s, err := sched.NewPoisson(1000, 1, rng.At(1, 0))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := rn.Run(counts[:], twoChoicesRule(), Config{
				Scheduler: s,
				Rand:      rng.At(1, 1),
				MaxTime:   1e6,
				ForceTick: force,
			}); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm scratch buffers
		// Left per run: the scheduler, its RNG stream and the engine RNG
		// stream. Anything per tick or per transition would be thousands.
		if allocs := testing.AllocsPerRun(5, run); allocs > 8 {
			t.Errorf("forceTick=%v: steady-state run allocated %.0f objects, want <= 8", force, allocs)
		}
	}
}
