package occupancy

import (
	"errors"
	"strings"
	"testing"

	"plurality/internal/population"
	"plurality/internal/rng"
)

// bareKernel strips the flow law off a kernel: the embedded interface only
// promotes the Kernel methods, so the wrapper is Kerneled but not a
// FlowKernel.
type bareKernel struct{ Kernel }

type bareRule struct{ dynRule }

func (b bareRule) OccupancyKernel() Kernel { return bareKernel{b.dynRule.OccupancyKernel()} }

func TestRunLeapReachesConsensus(t *testing.T) {
	for _, model := range []string{"sequential", "poisson"} {
		for _, rule := range []Rule{twoChoicesRule(), voterRule(), threeMajorityRule()} {
			counts := []int64{600, 300, 300}
			res, err := RunLeap(counts, rule, Config{
				Scheduler: mkSched(t, model, 1200, 7),
				Rand:      rng.At(7, 1),
				MaxTime:   1e6,
			}, LeapConfig{})
			if err != nil {
				t.Fatalf("%s/%s: %v", model, rule.Name(), err)
			}
			if !res.Done || res.Ticks <= 0 || res.Time <= 0 {
				t.Fatalf("%s/%s: %+v", model, rule.Name(), res)
			}
			if len(res.Switches) == 0 || res.Switches[0].Ticks != 0 {
				t.Fatalf("%s/%s: missing initial regime record: %+v", model, rule.Name(), res.Switches)
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

// TestRunLeapSmallNMatchesExactEngine: below the exact cutoff the hybrid
// engine IS the jump chain, so its regime bookkeeping must show a pure
// exact run.
func TestRunLeapSmallNMatchesExactEngine(t *testing.T) {
	counts := []int64{600, 400}
	res, err := RunLeap(counts, twoChoicesRule(), Config{
		Scheduler: mkSched(t, "sequential", 1000, 5),
		Rand:      rng.At(5, 1),
		MaxTime:   1e6,
	}, LeapConfig{})
	if err != nil || !res.Done {
		t.Fatalf("res = %+v, err = %v", res, err)
	}
	if res.LeapSteps != 0 || res.ODESteps != 0 || res.ExactTransitions == 0 {
		t.Fatalf("n below cutoff must run purely exact: %+v", res)
	}
	if len(res.Switches) != 1 || res.Switches[0].To != RegimeExact {
		t.Fatalf("switches = %+v, want a single exact record", res.Switches)
	}
}

// TestRunLeapUsesAllRegimes: a large biased run must hand off through all
// three regimes — ODE in the bulk, tau-leaping in the stochastic band,
// exact in the endgame — and still finish on a consensus histogram.
func TestRunLeapUsesAllRegimes(t *testing.T) {
	const n = 1_000_000_000
	counts := []int64{600_000_000, 400_000_000}
	res, err := RunLeap(counts, twoChoicesRule(), Config{
		Scheduler: mkSched(t, "sequential", n, 11),
		Rand:      rng.At(11, 1),
		MaxTime:   1e6,
	}, LeapConfig{ODETheta: 1e-3})
	if err != nil || !res.Done || res.Winner != 0 {
		t.Fatalf("res = %+v, err = %v", res, err)
	}
	if res.ODESteps == 0 || res.LeapSteps == 0 || res.ExactTransitions == 0 {
		t.Fatalf("expected all three regimes to fire: %+v", res)
	}
	if res.ODETime <= 0 {
		t.Fatalf("ODETime = %v, want > 0", res.ODETime)
	}
	if counts[0] != n || counts[1] != 0 {
		t.Fatalf("final histogram %v not a consensus at n", counts)
	}
	// Switch bookkeeping: monotone in ticks, first record at 0.
	for i, sw := range res.Switches {
		if i > 0 && sw.Ticks < res.Switches[i-1].Ticks {
			t.Fatalf("switch ticks not monotone: %+v", res.Switches)
		}
	}
}

// TestRunLeapHugeN is the tentpole acceptance scenario: completed consensus
// at n = 10¹². It demands completion and a sane result only; the root
// package's TestLeapGridGolden pins runs at n = 10⁹ bit for bit, and the
// leap-calibration sweep gates accuracy against the exact engine.
func TestRunLeapHugeN(t *testing.T) {
	if testing.Short() {
		t.Skip("n = 1e12 run skipped in -short mode")
	}
	const n = 1_000_000_000_000
	counts := []int64{600_000_000_000, 400_000_000_000}
	res, err := RunLeap(counts, twoChoicesRule(), Config{
		Scheduler: mkSched(t, "sequential", n, 1),
		Rand:      rng.At(1, 1),
		MaxTime:   1e6,
	}, LeapConfig{})
	if err != nil || !res.Done || res.Winner != 0 {
		t.Fatalf("res = %+v, err = %v", res, err)
	}
	if counts[0] != n {
		t.Fatalf("final histogram %v not a consensus at n", counts)
	}
	if res.ODESteps == 0 {
		t.Fatalf("n = 1e12 must traverse the ODE regime: %+v", res)
	}
}

// TestRunLeapVoterStallsODE: the Voter drift is identically zero, so the
// ODE regime must detect the stall and disable itself instead of spinning,
// leaving the run to the stochastic regimes (which then hit the budget).
func TestRunLeapVoterStallsODE(t *testing.T) {
	counts := []int64{500_000, 500_000}
	res, err := RunLeap(counts, voterRule(), Config{
		Scheduler: mkSched(t, "sequential", 1_000_000, 3),
		Rand:      rng.At(3, 1),
		MaxTime:   2,
	}, LeapConfig{ODETheta: 1e-2})
	if !errors.Is(err, ErrTimeLimit) {
		t.Fatalf("err = %v, want ErrTimeLimit (Voter cannot finish in 2 time units)", err)
	}
	if res.ODESteps != 0 {
		t.Fatalf("stalled ODE must not commit steps: %+v", res)
	}
	if res.LeapSteps == 0 {
		t.Fatalf("run must fall back to tau-leaping after the stall: %+v", res)
	}
	var total int64
	for _, v := range counts {
		total += v
	}
	if total != 1_000_000 {
		t.Fatalf("histogram no longer sums to n: %v", counts)
	}
}

func TestRunLeapTimeout(t *testing.T) {
	counts := []int64{500_000, 500_000}
	res, err := RunLeap(counts, twoChoicesRule(), Config{
		Scheduler: mkSched(t, "poisson", 1_000_000, 9),
		Rand:      rng.At(9, 1),
		MaxTime:   0.25,
	}, LeapConfig{})
	if !errors.Is(err, ErrTimeLimit) {
		t.Fatalf("err = %v, want ErrTimeLimit", err)
	}
	if res.Done || res.Time < 0 || res.Time > 0.25+1e-9 {
		t.Fatalf("implausible timeout bookkeeping: %+v", res)
	}
	var total int64
	for _, v := range counts {
		total += v
	}
	if total != 1_000_000 {
		t.Fatalf("histogram no longer sums to n: %v", counts)
	}
}

func TestRunLeapStop(t *testing.T) {
	calls := 0
	counts := []int64{500_000, 500_000}
	_, err := RunLeap(counts, twoChoicesRule(), Config{
		Scheduler: mkSched(t, "sequential", 1_000_000, 13),
		Rand:      rng.At(13, 1),
		MaxTime:   1e6,
		Stop: func() bool {
			calls++
			return calls > 3
		},
	}, LeapConfig{})
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
}

func TestRunLeapObserver(t *testing.T) {
	var snaps []Snapshot
	counts := []int64{600_000, 400_000}
	res, err := RunLeap(counts, twoChoicesRule(), Config{
		Scheduler:       mkSched(t, "sequential", 1_000_000, 17),
		Rand:            rng.At(17, 1),
		MaxTime:         1e6,
		ObserveInterval: 0.5,
		OnObserve: func(s Snapshot) {
			cp := s
			cp.Counts = append([]int64(nil), s.Counts...)
			snaps = append(snaps, cp)
		},
	}, LeapConfig{})
	if err != nil || !res.Done {
		t.Fatalf("res = %+v, err = %v", res, err)
	}
	if len(snaps) == 0 {
		t.Fatal("no snapshots delivered")
	}
	for i, s := range snaps {
		var total int64
		for _, v := range s.Counts {
			total += v
		}
		if total+s.Undecided != 1_000_000 {
			t.Fatalf("snapshot %d does not sum to n: %+v", i, s)
		}
		if i > 0 && (s.Ticks < snaps[i-1].Ticks || s.Time < snaps[i-1].Time) {
			t.Fatalf("snapshots not monotone: %+v then %+v", snaps[i-1], s)
		}
	}
	if last := snaps[len(snaps)-1]; last.Ticks != res.Ticks {
		t.Fatalf("final snapshot at ticks %d, run ended at %d", last.Ticks, res.Ticks)
	}
}

func TestRunLeapDeterministic(t *testing.T) {
	run := func() (LeapResult, []int64) {
		counts := []int64{6_000_000, 3_000_000, 1_000_000}
		res, err := RunLeap(counts, threeMajorityRule(), Config{
			Scheduler: mkSched(t, "poisson", 10_000_000, 21),
			Rand:      rng.At(21, 1),
			MaxTime:   1e6,
		}, LeapConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return res, counts
	}
	r1, c1 := run()
	r2, c2 := run()
	if r1.Ticks != r2.Ticks || r1.Time != r2.Time || r1.Winner != r2.Winner ||
		r1.LeapSteps != r2.LeapSteps || r1.ExactTransitions != r2.ExactTransitions ||
		r1.ODESteps != r2.ODESteps {
		t.Fatalf("same seed diverged: %+v vs %+v", r1, r2)
	}
	for c := range c1 {
		if c1[c] != c2[c] {
			t.Fatalf("same seed diverged on histogram: %v vs %v", c1, c2)
		}
	}
}

func TestRunLeapValidation(t *testing.T) {
	mk := func() ([]int64, Config) {
		return []int64{600, 400}, Config{
			Scheduler: mkSched(t, "sequential", 1000, 1),
			Rand:      rng.At(1, 1),
			MaxTime:   10,
		}
	}
	t.Run("churn", func(t *testing.T) {
		counts, cfg := mk()
		cfg.Churn = 0.1
		if _, err := RunLeap(counts, twoChoicesRule(), cfg, LeapConfig{}); err == nil || !strings.Contains(err.Error(), "churn") {
			t.Fatalf("err = %v, want churn rejection", err)
		}
	})
	t.Run("heap-poisson", func(t *testing.T) {
		counts, cfg := mk()
		cfg.Scheduler = mkSched(t, "heap-poisson", 1000, 1)
		if _, err := RunLeap(counts, twoChoicesRule(), cfg, LeapConfig{}); err == nil || !strings.Contains(err.Error(), "scheduler") {
			t.Fatalf("err = %v, want scheduler rejection", err)
		}
	})
	t.Run("no-flow-kernel", func(t *testing.T) {
		counts, cfg := mk()
		if _, err := RunLeap(counts, bareRule{twoChoicesRule()}, cfg, LeapConfig{}); err == nil || !strings.Contains(err.Error(), "flow law") {
			t.Fatalf("err = %v, want flow-law rejection", err)
		}
	})
	t.Run("bad-eps", func(t *testing.T) {
		counts, cfg := mk()
		if _, err := RunLeap(counts, twoChoicesRule(), cfg, LeapConfig{Eps: 0.7}); err == nil || !strings.Contains(err.Error(), "Eps") {
			t.Fatalf("err = %v, want Eps rejection", err)
		}
	})
	t.Run("bad-cutoff", func(t *testing.T) {
		counts, cfg := mk()
		if _, err := RunLeap(counts, twoChoicesRule(), cfg, LeapConfig{ExactCutoff: 1}); err == nil || !strings.Contains(err.Error(), "ExactCutoff") {
			t.Fatalf("err = %v, want cutoff rejection", err)
		}
	})
	t.Run("undecided-on-plain-rule", func(t *testing.T) {
		counts, cfg := mk()
		cfg.Undecided = 5
		if _, err := RunLeap(counts, twoChoicesRule(), cfg, LeapConfig{}); err == nil || !strings.Contains(err.Error(), "undecided") {
			t.Fatalf("err = %v, want undecided rejection", err)
		}
	})
	t.Run("budget-overflow", func(t *testing.T) {
		counts, cfg := mk()
		cfg.MaxTime = 1e30
		if _, err := RunLeap(counts, twoChoicesRule(), cfg, LeapConfig{}); err == nil || !strings.Contains(err.Error(), "MaxTime") {
			t.Fatalf("err = %v, want budget rejection", err)
		}
	})
	t.Run("nil-rule", func(t *testing.T) {
		counts, cfg := mk()
		if _, err := RunLeap(counts, nil, cfg, LeapConfig{}); err == nil {
			t.Fatal("nil rule accepted")
		}
	})
}

// TestRunLeapODEDisabled: a negative ODETheta must keep the run fully
// stochastic regardless of scale.
func TestRunLeapODEDisabled(t *testing.T) {
	counts := []int64{6_000_000, 4_000_000}
	res, err := RunLeap(counts, twoChoicesRule(), Config{
		Scheduler: mkSched(t, "sequential", 10_000_000, 23),
		Rand:      rng.At(23, 1),
		MaxTime:   1e6,
	}, LeapConfig{ODETheta: -1})
	if err != nil || !res.Done {
		t.Fatalf("res = %+v, err = %v", res, err)
	}
	if res.ODESteps != 0 {
		t.Fatalf("ODE regime fired despite being disabled: %+v", res)
	}
	if res.LeapSteps == 0 {
		t.Fatalf("expected tau-leaping at n = 1e7: %+v", res)
	}
}

func TestLeapable(t *testing.T) {
	if !Leapable(twoChoicesRule(), 2) {
		t.Fatal("two-choices must be leapable")
	}
	if Leapable(bareRule{twoChoicesRule()}, 2) {
		t.Fatal("a rule without a flow law must not be leapable")
	}
}

// TestRunLeapInitialConsensus mirrors the exact engine's contract.
func TestRunLeapInitialConsensus(t *testing.T) {
	counts := []int64{0, 50, 0}
	res, err := RunLeap(counts, twoChoicesRule(), Config{
		Scheduler: mkSched(t, "poisson", 50, 1),
		Rand:      rng.At(1, 1),
		MaxTime:   10,
	}, LeapConfig{})
	if err != nil || !res.Done || res.Winner != 1 || res.Ticks != 0 {
		t.Fatalf("res = %+v, err = %v", res, err)
	}
}
