package sched

import (
	"math"
	"testing"

	"plurality/internal/rng"
	"plurality/internal/stats"
)

// engines lists every scheduler engine under its construction at (n, rate 1).
func engines(t *testing.T, n int, seed uint64) map[string]BatchScheduler {
	t.Helper()
	seq, err := NewSequential(n, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	poi, err := NewPoisson(n, 1, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	hp, err := NewHeapPoisson(n, 1, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]BatchScheduler{"sequential": seq, "poisson": poi, "heap-poisson": hp}
}

// ksStatistic and ksThreshold delegate to the shared implementations in
// internal/stats (also used by the dynamics-engine equivalence tests).
func ksStatistic(a, b []float64) float64          { return stats.KSStatistic(a, b) }
func ksThreshold(alpha float64, m, n int) float64 { return stats.KSThreshold(alpha, m, n) }

// perNodeGaps runs s for about total ticks and returns the pooled per-node
// inter-activation times in parallel time. In every engine these should be
// (asymptotically) i.i.d. Exp(1): exactly exponential under both Poisson
// engines, Geometric(1/n)/n under the sequential model.
func perNodeGaps(s BatchScheduler, total int) []float64 {
	n := s.N()
	lastSeen := make([]float64, n)
	seen := make([]bool, n)
	gaps := make([]float64, 0, total)
	buf := make([]Tick, BatchSize)
	for len(gaps) < total {
		s.NextBatch(buf)
		for _, tk := range buf {
			if seen[tk.Node] {
				gaps = append(gaps, tk.Time-lastSeen[tk.Node])
			}
			seen[tk.Node] = true
			lastSeen[tk.Node] = tk.Time
		}
	}
	return gaps[:total]
}

// TestInterActivationTimesEquivalent is the scheduler-equivalence test the
// paper's model-equivalence claim (via Mosk-Aoyama & Shah) rests on: the
// O(1) Poisson engine, the heap reference, and the sequential model must
// produce statistically indistinguishable per-node inter-activation times.
// Pairwise two-sample KS tests at α = 0.001; the runs are deterministic, so
// this cannot flake — it fails only if an engine's distribution is wrong.
func TestInterActivationTimesEquivalent(t *testing.T) {
	const n, samples = 1000, 40_000
	es := engines(t, n, 42)
	gaps := map[string][]float64{}
	for name, s := range es {
		gaps[name] = perNodeGaps(s, samples)
	}
	pairs := [][2]string{
		{"poisson", "heap-poisson"},
		{"poisson", "sequential"},
		{"heap-poisson", "sequential"},
	}
	for _, p := range pairs {
		a := append([]float64(nil), gaps[p[0]]...)
		b := append([]float64(nil), gaps[p[1]]...)
		d := ksStatistic(a, b)
		thresh := ksThreshold(0.001, len(a), len(b))
		// The sequential model's gaps live on the lattice {k/n}, which
		// biases the KS distance by O(1/n); widen the threshold by that
		// much for the mixed pairs.
		thresh += 1 / float64(n)
		if d > thresh {
			t.Errorf("%s vs %s: KS statistic %.4f > %.4f", p[0], p[1], d, thresh)
		}
	}
}

// TestGlobalGapExponential checks the O(1) engine's global inter-event gaps
// against the heap engine's: both must be Exp(n·rate).
func TestGlobalGapExponential(t *testing.T) {
	const n, samples = 500, 50_000
	collect := func(s Scheduler) []float64 {
		gaps := make([]float64, samples)
		prev := 0.0
		for i := range gaps {
			tk := s.Next()
			gaps[i] = tk.Time - prev
			prev = tk.Time
		}
		return gaps
	}
	poi, err := NewPoisson(n, 1, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	hp, err := NewHeapPoisson(n, 1, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	a, b := collect(poi), collect(hp)
	if d, thresh := ksStatistic(a, b), ksThreshold(0.001, samples, samples); d > thresh {
		t.Errorf("global gaps: KS statistic %.4f > %.4f", d, thresh)
	}
	// Sanity: the mean global gap is 1/(n·rate).
	var sum float64
	for _, g := range a {
		sum += g
	}
	if mean, want := sum/samples, 1/float64(n); math.Abs(mean-want)/want > 0.05 {
		t.Errorf("mean global gap %.6f, want ~%.6f", mean, want)
	}
}

// TestNodeMarginalsUniform checks every engine's node-choice marginal
// against the uniform distribution with a chi-square test.
func TestNodeMarginalsUniform(t *testing.T) {
	const n, draws = 64, 640_000
	for name, s := range engines(t, n, 99) {
		counts := make([]int64, n)
		buf := make([]Tick, BatchSize)
		for delivered := 0; delivered < draws; delivered += len(buf) {
			s.NextBatch(buf)
			for _, tk := range buf {
				counts[tk.Node]++
			}
		}
		var total int64
		for _, c := range counts {
			total += c
		}
		expect := float64(total) / n
		var chi2 float64
		for _, c := range counts {
			d := float64(c) - expect
			chi2 += d * d / expect
		}
		// χ² with n−1 dof: mean n−1, sd sqrt(2(n−1)); 5σ band.
		dof := float64(n - 1)
		if limit := dof + 5*math.Sqrt(2*dof); chi2 > limit {
			t.Errorf("%s: chi2 = %.1f > %.1f (non-uniform node marginal)", name, chi2, limit)
		}
	}
}

// TestNextBatchMatchesNext verifies NextBatch is tick-for-tick identical to
// repeated Next calls for every engine, including across odd batch sizes.
func TestNextBatchMatchesNext(t *testing.T) {
	const n, total = 37, 1000
	for name := range engines(t, n, 5) {
		one := engines(t, n, 5)[name]
		batched := engines(t, n, 5)[name]
		var fromNext, fromBatch []Tick
		for i := 0; i < total; i++ {
			fromNext = append(fromNext, one.Next())
		}
		for _, size := range []int{1, 3, 17, 100, 379, 500} {
			buf := make([]Tick, size)
			batched.NextBatch(buf)
			fromBatch = append(fromBatch, buf...)
		}
		for i := range fromBatch {
			if fromBatch[i] != fromNext[i] {
				t.Fatalf("%s: tick %d: batch %+v != next %+v", name, i, fromBatch[i], fromNext[i])
			}
		}
	}
}

// TestNextBatchMatchesNextAtEdgeSizes pins the batch loops of the Poisson
// and sequential engines, which draw from a local copy of the generator
// state, to Next at the population sizes that reach every branch of the
// bounded node draw: n = 1 and 2, n = 2²⁰ (the low-bits path) and
// n = 3·2⁶¹ (about a quarter of the first words are rejected). Batches of
// uneven sizes alternate with single Next calls on the batched side, so a
// state not written back at the end of a batch shows.
func TestNextBatchMatchesNextAtEdgeSizes(t *testing.T) {
	mk := map[string]func(n int) BatchScheduler{
		"sequential": func(n int) BatchScheduler {
			s, err := NewSequential(n, rng.New(5))
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
		"poisson": func(n int) BatchScheduler {
			s, err := NewPoisson(n, 1, rng.New(5))
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
	}
	for _, n := range []int{1, 2, 1 << 20, 3 << 61} {
		for name, newSched := range mk {
			one, batched := newSched(n), newSched(n)
			var fromNext, fromBatch []Tick
			for _, size := range []int{1, 3, 17, 100, 379, BatchSize, 500} {
				buf := make([]Tick, size)
				batched.NextBatch(buf)
				fromBatch = append(fromBatch, buf...)
				fromBatch = append(fromBatch, batched.Next())
			}
			for range fromBatch {
				fromNext = append(fromNext, one.Next())
			}
			for i := range fromBatch {
				if fromBatch[i] != fromNext[i] {
					t.Fatalf("%s n=%d: tick %d: batch %+v != next %+v", name, n, i, fromBatch[i], fromNext[i])
				}
			}
		}
	}
}

// TestRunBatchMatchesRunUntil verifies the batched driver delivers exactly
// the ticks RunUntil would, under both stopping rules, and that both report
// Tick{Seq: -1} as the last tick when the first one lies beyond maxTime.
func TestRunBatchMatchesRunUntil(t *testing.T) {
	collect := func(run func(Scheduler, float64, func(Tick) bool) (Tick, bool), maxTime float64, stopAfter int) ([]Tick, Tick, bool) {
		s, err := NewPoisson(25, 1, rng.New(12))
		if err != nil {
			t.Fatal(err)
		}
		var ticks []Tick
		last, stopped := run(s, maxTime, func(tk Tick) bool {
			ticks = append(ticks, tk)
			return stopAfter <= 0 || len(ticks) < stopAfter
		})
		return ticks, last, stopped
	}
	for _, tc := range []struct {
		maxTime   float64
		stopAfter int
	}{{40, 0}, {1e9, 777}, {1e-9, 0}} {
		a, lastA, stopA := collect(RunUntil, tc.maxTime, tc.stopAfter)
		// Without a buffer RunBatch allocates its own; a pooled one is
		// reused whatever it held before.
		for _, buf := range [][]Tick{nil, make([]Tick, BatchSize+3)} {
			b, lastB, stopB := collect(func(s Scheduler, maxTime float64, step func(Tick) bool) (Tick, bool) {
				return RunBatch(s, maxTime, buf, step)
			}, tc.maxTime, tc.stopAfter)
			if len(a) != len(b) || lastA != lastB || stopA != stopB {
				t.Fatalf("maxTime=%v stopAfter=%d buffer=%d: RunUntil (%d ticks, %+v, %v) != RunBatch (%d ticks, %+v, %v)",
					tc.maxTime, tc.stopAfter, len(buf), len(a), lastA, stopA, len(b), lastB, stopB)
			}
			if lastA.Seq+1 != int64(len(a)) {
				t.Fatalf("maxTime=%v: last tick %+v after %d delivered", tc.maxTime, lastA, len(a))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("buffer=%d: tick %d differs: %+v != %+v", len(buf), i, a[i], b[i])
				}
			}
		}
	}
}

// TestRunBatchPooledBufferAllocatesNothing: a caller that hands RunBatch a
// BatchSize buffer pays no allocation for the run.
func TestRunBatchPooledBufferAllocatesNothing(t *testing.T) {
	s, err := NewPoisson(1000, 1, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]Tick, BatchSize)
	ticks := 0
	step := func(Tick) bool { ticks++; return true }
	if allocs := testing.AllocsPerRun(10, func() { RunBatch(s, s.now+2, buf, step) }); allocs != 0 {
		t.Fatalf("RunBatch with a pooled buffer: %v allocations per run, want 0", allocs)
	}
	if ticks == 0 {
		t.Fatal("RunBatch delivered no ticks")
	}
}

func BenchmarkHeapPoissonNext(b *testing.B) {
	s, err := NewHeapPoisson(1_000_000, 1, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Next()
	}
}

func BenchmarkPoissonNextBatch(b *testing.B) {
	s, err := NewPoisson(1_000_000, 1, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]Tick, BatchSize)
	b.ResetTimer()
	for i := 0; i < b.N; i += len(buf) {
		s.NextBatch(buf)
	}
}
