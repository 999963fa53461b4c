package occupancy

import (
	"math"
	"testing"

	"plurality/internal/population"
	"plurality/internal/rng"
)

// ruleFor reconstructs the three built-in rules locally (the protocol
// packages import this one, so the tests rebuild the update functions
// instead of importing them; each mirrors its package's Next verbatim).
type testRule struct {
	name string
	s    int
	next func(own population.Color, sampled []population.Color) population.Color
	kern Kernel
}

func builtinRules() []testRule {
	return []testRule{
		{
			name: "two-choices", s: 2, kern: TwoChoicesKernel{},
			next: func(own population.Color, sampled []population.Color) population.Color {
				if sampled[0] == sampled[1] {
					return sampled[0]
				}
				return own
			},
		},
		{
			name: "voter", s: 1, kern: VoterKernel{},
			next: func(_ population.Color, sampled []population.Color) population.Color {
				return sampled[0]
			},
		},
		{
			name: "3-majority", s: 3, kern: &ThreeMajorityKernel{},
			next: func(_ population.Color, sampled []population.Color) population.Color {
				if sampled[0] == sampled[1] || sampled[0] == sampled[2] {
					return sampled[0]
				}
				if sampled[1] == sampled[2] {
					return sampled[1]
				}
				return sampled[0]
			},
		},
	}
}

// exactTransitionLaw enumerates every (own color, sample tuple) combination
// and returns the exact per-activation transition probabilities
// P[from][to] (from != to) plus the total effective probability. The three
// built-in rules are deterministic functions of their samples, so the
// enumeration is exact — this is the ground truth the closed-form kernels
// are checked against.
func exactTransitionLaw(counts []int64, withSelf bool, s int, next func(population.Color, []population.Color) population.Color) (p [][]float64, pEff float64) {
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
	sampled := make([]population.Color, s)
	tuple := make([]int, s)
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
		// Walk all k^s sample tuples.
		for i := range tuple {
			tuple[i] = 0
		}
		for {
			prob := pOwn
			for i, v := range tuple {
				prob *= q[v]
				sampled[i] = population.Color(v)
			}
			if prob > 0 {
				if d := next(population.Color(c), sampled); d != population.None && int(d) != c {
					p[c][d] += prob
					pEff += prob
				}
			}
			i := 0
			for ; i < s; i++ {
				tuple[i]++
				if tuple[i] < k {
					break
				}
				tuple[i] = 0
			}
			if i == s {
				break
			}
		}
	}
	return p, pEff
}

// TestKernelEffectiveProbExact checks every kernel's closed form against
// full enumeration of the rule on a spread of histograms, in both sampling
// modes.
func TestKernelEffectiveProbExact(t *testing.T) {
	histograms := [][]int64{
		{5, 3},
		{4, 3, 2},
		{10, 1, 1},
		{7, 7, 7},
		{1, 1, 2, 9},
		{25, 0, 3, 2}, // an empty color must not disturb the law
	}
	for _, tr := range builtinRules() {
		for _, counts := range histograms {
			for _, withSelf := range []bool{false, true} {
				_, wantEff := exactTransitionLaw(counts, withSelf, tr.s, tr.next)
				var n int64
				for _, v := range counts {
					n += v
				}
				gotEff := tr.kern.EffectiveProb(counts, n, withSelf)
				if math.Abs(gotEff-wantEff) > 1e-12 {
					t.Errorf("%s withSelf=%v counts=%v: EffectiveProb = %.15f, enumeration %.15f",
						tr.name, withSelf, counts, gotEff, wantEff)
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
	const draws = 200_000
	for _, tr := range builtinRules() {
		for _, withSelf := range []bool{false, true} {
			p, pEff := exactTransitionLaw(counts, withSelf, tr.s, tr.next)
			r := rng.New(99)
			k := len(counts)
			observed := make([]int, k*k)
			for i := 0; i < draws; i++ {
				from, to := tr.kern.SampleTransition(r, counts, n, withSelf)
				if from == to || from < 0 || to < 0 || from >= k || to >= k {
					t.Fatalf("%s: SampleTransition returned (%d, %d)", tr.name, from, to)
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
							t.Errorf("%s withSelf=%v: impossible transition (%d→%d) sampled %d times",
								tr.name, withSelf, from, to, observed[from*k+to])
						}
						continue
					}
					d := float64(observed[from*k+to]) - expected
					stat += d * d / expected
					df++
				}
			}
			if df < 1 {
				t.Fatalf("%s: degenerate chi-square setup", tr.name)
			}
			// Wilson–Hilferty 99.9th percentile approximation.
			z := 3.0902
			dff := float64(df)
			crit := dff * math.Pow(1-2/(9*dff)+z*math.Sqrt(2/(9*dff)), 3)
			if stat > crit {
				t.Errorf("%s withSelf=%v: transition chi-square %.1f > %.1f (df %d)",
					tr.name, withSelf, stat, crit, df)
			}
		}
	}
}
