package jmajority

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"plurality/internal/occupancy"
	"plurality/internal/population"
	"plurality/internal/rng"
)

// majorityLaw enumerates every (own color, sample tuple) combination and
// returns the exact per-activation transition probabilities P[from][to]
// (from != to) plus the total effective probability. The rule's only
// randomness is the uniform tie-break, whose law is known per tuple (1/ties
// for each tied-top color), so the enumeration is exact — the ground truth
// the DP kernel is checked against.
func majorityLaw(counts []int64, withSelf bool, j int) (p [][]float64, pEff float64) {
	k := len(counts)
	var n int64
	for _, v := range counts {
		n += v
	}
	nf := float64(n)
	p = make([][]float64, k)
	for i := range p {
		p[i] = make([]float64, k)
	}
	tuple := make([]int, j)
	occ := make([]int, k)
	for c := 0; c < k; c++ {
		if counts[c] == 0 {
			continue
		}
		pOwn := float64(counts[c]) / nf
		q := make([]float64, k)
		for d := 0; d < k; d++ {
			nd := float64(counts[d])
			if withSelf {
				q[d] = nd / nf
			} else {
				if d == c {
					nd--
				}
				q[d] = nd / (nf - 1)
			}
		}
		for i := range tuple {
			tuple[i] = 0
		}
		for {
			prob := pOwn
			for i := range occ {
				occ[i] = 0
			}
			for _, v := range tuple {
				prob *= q[v]
				occ[v]++
			}
			if prob > 0 {
				best, ties := 0, 0
				for _, v := range occ {
					switch {
					case v > best:
						best, ties = v, 1
					case v == best && v > 0:
						ties++
					}
				}
				for d, v := range occ {
					if v == best && d != c {
						p[c][d] += prob / float64(ties)
						pEff += prob / float64(ties)
					}
				}
			}
			i := 0
			for ; i < j; i++ {
				tuple[i]++
				if tuple[i] < k {
					break
				}
				tuple[i] = 0
			}
			if i == j {
				break
			}
		}
	}
	return p, pEff
}

func testHistograms() [][]int64 {
	return [][]int64{
		{5, 3},
		{4, 3, 2},
		{10, 1, 1},
		{7, 7, 7},
		{1, 1, 2, 9},
		{25, 0, 3, 2}, // an empty color must not disturb the law
	}
}

func TestNewValidation(t *testing.T) {
	for _, j := range []int{0, -1, MaxJ + 1} {
		if _, err := New(j); err == nil {
			t.Errorf("New(%d): no error", j)
		}
	}
	r, err := New(5)
	if err != nil || r.J != 5 || r.SampleCount() != 5 || r.Name() != "j-majority:5" {
		t.Fatalf("New(5) = %+v, %v", r, err)
	}
}

// TestKernelEffectiveProbExact checks the DP kernel against full
// enumeration of the rule for a spread of sample sizes, histograms and
// sampling modes.
func TestKernelEffectiveProbExact(t *testing.T) {
	for _, j := range []int{1, 2, 3, 4, 5} {
		kern := &Kernel{J: j}
		for _, counts := range testHistograms() {
			for _, withSelf := range []bool{false, true} {
				_, wantEff := majorityLaw(counts, withSelf, j)
				var n int64
				for _, v := range counts {
					n += v
				}
				gotEff := kern.EffectiveProb(counts, n, withSelf)
				if math.Abs(gotEff-wantEff) > 1e-12 {
					t.Errorf("j=%d withSelf=%v counts=%v: EffectiveProb = %.15f, enumeration %.15f",
						j, withSelf, counts, gotEff, wantEff)
				}
			}
		}
	}
}

// TestKernelReproducesVoterAnd3Majority pins the family's anchor points at
// the kernel level: j = 1 must equal the Voter kernel and j = 3 the
// 3-Majority kernel exactly (the built-in's first-sample tie-break is
// uniform over the tied colors by exchangeability).
func TestKernelReproducesVoterAnd3Majority(t *testing.T) {
	for _, counts := range testHistograms() {
		var n int64
		for _, v := range counts {
			n += v
		}
		for _, withSelf := range []bool{false, true} {
			j1 := (&Kernel{J: 1}).EffectiveProb(counts, n, withSelf)
			voter := occupancy.VoterKernel{}.EffectiveProb(counts, n, withSelf)
			if math.Abs(j1-voter) > 1e-12 {
				t.Errorf("withSelf=%v counts=%v: j=1 EffectiveProb %.15f != voter %.15f",
					withSelf, counts, j1, voter)
			}
			j3 := (&Kernel{J: 3}).EffectiveProb(counts, n, withSelf)
			maj := (&occupancy.ThreeMajorityKernel{}).EffectiveProb(counts, n, withSelf)
			if math.Abs(j3-maj) > 1e-12 {
				t.Errorf("withSelf=%v counts=%v: j=3 EffectiveProb %.15f != 3-majority %.15f",
					withSelf, counts, j3, maj)
			}
		}
	}
}

// TestWeightRecordNeverLeaks checks that the leave weights EffectiveProb
// records serve only a SampleTransition on the histogram they belong to. A
// kernel driven through EffectiveProb must draw the same transitions, and
// leave its RNG in the same state, as a fresh kernel that never recorded
// any: on the same histogram, after EffectiveProb on a histogram with one
// node moved, and on a second SampleTransition in a row.
func TestWeightRecordNeverLeaks(t *testing.T) {
	kernels := map[string]func() occupancy.Kernel{
		"3-majority": func() occupancy.Kernel { return &occupancy.ThreeMajorityKernel{} },
	}
	for _, j := range []int{1, 2, 3, 4, 5, 8} {
		kernels[fmt.Sprintf("j-majority:%d", j)] = func() occupancy.Kernel { return &Kernel{J: j} }
	}
	for name, mk := range kernels {
		for _, counts := range testHistograms() {
			var n int64
			for _, v := range counts {
				n += v
			}
			moved := slices.Clone(counts)
			moved[0]--
			moved[1]++
			for _, withSelf := range []bool{false, true} {
				got, fresh := mk(), mk()
				r := rng.New(7)
				rFresh := r.Clone()
				draw := func(step string) {
					t.Helper()
					from, to := got.SampleTransition(r, counts, n, withSelf)
					wantFrom, wantTo := fresh.SampleTransition(rFresh, counts, n, withSelf)
					if from != wantFrom || to != wantTo || r.State() != rFresh.State() {
						t.Fatalf("%s counts=%v withSelf=%v %s: drew (%d, %d), fresh kernel (%d, %d)",
							name, counts, withSelf, step, from, to, wantFrom, wantTo)
					}
				}
				for i := 0; i < 50; i++ {
					draw("without EffectiveProb")
					got.EffectiveProb(counts, n, withSelf)
					draw("after EffectiveProb")
					draw("on a second SampleTransition")
					got.EffectiveProb(moved, n, withSelf)
					draw("after EffectiveProb on a moved histogram")
				}
			}
		}
	}
}

// TestKernelTransitionDistribution checks SampleTransition's empirical
// (from, to) frequencies against the exact conditional law by chi-square at
// the 99.9th percentile. Deterministic seeds: a failure means a wrong
// kernel, not bad luck.
func TestKernelTransitionDistribution(t *testing.T) {
	counts := []int64{6, 3, 2, 1}
	var n int64
	for _, v := range counts {
		n += v
	}
	const draws = 120_000
	k := len(counts)
	for _, j := range []int{2, 4} {
		kern := &Kernel{J: j}
		for _, withSelf := range []bool{false, true} {
			p, pEff := majorityLaw(counts, withSelf, j)
			r := rng.New(99)
			observed := make([]int, k*k)
			for i := 0; i < draws; i++ {
				from, to := kern.SampleTransition(r, counts, n, withSelf)
				if from == to || from < 0 || to < 0 || from >= k || to >= k {
					t.Fatalf("j=%d: SampleTransition returned (%d, %d)", j, from, to)
				}
				observed[from*k+to]++
			}
			var stat float64
			df := -1 // cells sum to draws, so one degree is lost
			for from := 0; from < k; from++ {
				for to := 0; to < k; to++ {
					expected := p[from][to] / pEff * draws
					if expected < 5 {
						if observed[from*k+to] > 0 && expected == 0 {
							t.Errorf("j=%d withSelf=%v: impossible transition (%d→%d) sampled %d times",
								j, withSelf, from, to, observed[from*k+to])
						}
						continue
					}
					d := float64(observed[from*k+to]) - expected
					stat += d * d / expected
					df++
				}
			}
			if df < 1 {
				t.Fatalf("j=%d: degenerate chi-square setup", j)
			}
			// Wilson–Hilferty 99.9th percentile approximation.
			z := 3.0902
			dff := float64(df)
			crit := dff * math.Pow(1-2/(9*dff)+z*math.Sqrt(2/(9*dff)), 3)
			if stat > crit {
				t.Errorf("j=%d withSelf=%v: transition chi-square %.1f > %.1f (df %d)",
					j, withSelf, stat, crit, df)
			}
		}
	}
}

// TestNextMajorityAndTies: deterministic majorities are adopted; the j=1
// rule is Voter; two-way ties break uniformly (chi-square on one degree).
func TestNextMajorityAndTies(t *testing.T) {
	r := rng.New(42)
	if got := (Rule{J: 3}).Next(r, 5, []population.Color{1, 2, 1}); got != 1 {
		t.Fatalf("majority {1,2,1}: got %d, want 1", got)
	}
	if got := (Rule{J: 1}).Next(r, 5, []population.Color{3}); got != 3 {
		t.Fatalf("j=1: got %d, want the sample", got)
	}
	const draws = 20000
	var first int
	for i := 0; i < draws; i++ {
		switch got := (Rule{J: 2}).Next(r, 5, []population.Color{0, 1}); got {
		case 0:
			first++
		case 1:
		default:
			t.Fatalf("tie-break returned %d", got)
		}
	}
	d := float64(first) - draws/2
	if stat := d * d / (draws / 4); stat > 10.83 { // chi-square df=1, 99.9th pct
		t.Fatalf("tie-break biased: %d/%d heads (chi-square %.1f)", first, draws, stat)
	}
}
