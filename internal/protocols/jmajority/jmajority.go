// Package jmajority implements the parameterized j-Majority dynamic: on
// activation a node samples j nodes uniformly at random with replacement
// and adopts the most frequent color among the samples, breaking ties
// uniformly at random among the tied colors.
//
// The sample size turns "which rule?" into a sweepable axis of the
// h-majority family studied in the gossip-model plurality-consensus
// literature (Becchetti et al.; Ghaffari & Parter): j = 1 is exactly the
// Voter dynamic, and j = 3 is distributionally identical to 3-Majority —
// the built-in's first-sample tie-break is uniform over the three tied
// colors by exchangeability of i.i.d. samples — while larger j buys
// stronger drift toward the plurality at a higher per-step sample cost.
//
// The count-level transition law has no product closed form for general j,
// so Kernel evaluates it exactly with a multinomial dynamic program over
// the sample composition: at most O(k·j³) cell updates per adoption
// probability, fewer once adoptProb skips the impossible cells. Each
// effective activation of the occupancy engine evaluates at most 2k − 1
// adoption probabilities: k in EffectiveProb and k − 1 in
// SampleTransition. The kernel is verified against full enumeration of the
// rule like the built-in kernels.
package jmajority

import (
	"fmt"

	"plurality/internal/occupancy"
	"plurality/internal/population"
	"plurality/internal/protocols/dynamics"
	"plurality/internal/rng"
)

// MaxJ bounds the sample size: the kernel's DP tables and the per-node
// O(j²) majority scan stay cheap, and factorials up to MaxJ! remain exact
// in float64.
const MaxJ = 16

// Rule is the j-Majority update rule for a fixed sample size J.
type Rule struct {
	// J is the number of samples per activation (1 ≤ J ≤ MaxJ).
	J int
}

var (
	_ dynamics.Rule      = Rule{}
	_ occupancy.Kerneled = Rule{}
)

// New validates the sample size and returns the rule.
func New(j int) (Rule, error) {
	if j < 1 || j > MaxJ {
		return Rule{}, fmt.Errorf("jmajority: j = %d, want 1 <= j <= %d", j, MaxJ)
	}
	return Rule{J: j}, nil
}

// Name implements dynamics.Rule.
func (r Rule) Name() string { return fmt.Sprintf("j-majority:%d", r.J) }

// SampleCount implements dynamics.Rule.
func (r Rule) SampleCount() int { return r.J }

// Next implements dynamics.Rule: adopt the most frequent sampled color,
// ties broken uniformly at random (reservoir selection over the tied-top
// colors, so no per-call allocation).
func (Rule) Next(r *rng.RNG, _ population.Color, sampled []population.Color) population.Color {
	best := population.None
	bestCnt, ties := 0, 0
	for i := 0; i < len(sampled); i++ {
		c := sampled[i]
		dup := false
		for l := 0; l < i; l++ {
			if sampled[l] == c {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		cnt := 1
		for l := i + 1; l < len(sampled); l++ {
			if sampled[l] == c {
				cnt++
			}
		}
		switch {
		case cnt > bestCnt:
			best, bestCnt, ties = c, cnt, 1
		case cnt == bestCnt:
			ties++
			if r.Intn(ties) == 0 {
				best = c
			}
		}
	}
	return best
}

// OccupancyKernel implements occupancy.Kerneled. The kernel carries DP
// scratch, so each run gets a fresh instance.
func (r Rule) OccupancyKernel() occupancy.Kernel { return &Kernel{J: r.J} }

// Kernel is the exact count-level law of j-Majority. For an activated node
// with neighbor distribution q, the probability that color d is adopted is
//
//	P(A = d) = Σ_{m≥1} Σ_{t≥0} P(X_d = m, t other colors at m, rest < m) / (t+1)
//
// with X ~ Multinomial(j, q); the inner probability is evaluated by a
// dynamic program over the non-d colors that tracks (samples used, number
// of colors tied at m), carrying the multinomial weight q_e^x/x! per color
// so the composition count never has to be enumerated.
type Kernel struct {
	// J is the sample size.
	J int

	q        []float64                   // neighbor law scratch
	g, gNext []float64                   // DP tables, flattened (s, t)
	fact     []float64                   // factorials 0! … J!
	tw       occupancy.TransitionWeights // leave-weight record, pick scratch
}

// init sizes the scratch for k colors (idempotent).
func (kn *Kernel) init(k int) {
	if len(kn.fact) == kn.J+1 && cap(kn.q) >= k {
		kn.q = kn.q[:k]
		return
	}
	kn.fact = make([]float64, kn.J+1)
	kn.fact[0] = 1
	for i := 1; i <= kn.J; i++ {
		kn.fact[i] = kn.fact[i-1] * float64(i)
	}
	size := (kn.J + 1) * (kn.J + 1)
	kn.g = make([]float64, size)
	kn.gNext = make([]float64, size)
	kn.q = make([]float64, k)
}

// neighborLaw fills kn.q with the sampling distribution seen by an
// activated node of color c (the clique's uniform draw, with or without
// the node itself).
func (kn *Kernel) neighborLaw(counts []int64, n int64, c int, withSelf bool) {
	nf := float64(n)
	if withSelf {
		for d, v := range counts {
			kn.q[d] = float64(v) / nf
		}
		return
	}
	for d, v := range counts {
		nd := float64(v)
		if d == c {
			nd--
		}
		kn.q[d] = nd / (nf - 1)
	}
}

// adoptProb returns P(adopted color = d) under the current kn.q. A maximum
// m that the other colors cannot make up (others·m < j − m) has a term of
// exactly 0 and is skipped, and each color's pass visits only the sample
// totals reachable so far; neither changes a single floating-point
// operation on the cells that carry weight.
func (kn *Kernel) adoptProb(d int) float64 {
	j := kn.J
	qd := kn.q[d]
	if qd <= 0 {
		return 0
	}
	others := 0
	for e, qe := range kn.q {
		if e != d && qe > 0 {
			others++
		}
	}
	var p float64
	qdPow := 1.0 // q_d^m, maintained incrementally
	for m := 1; m <= j; m++ {
		qdPow *= qd
		rest := j - m
		if others*m < rest {
			continue
		}
		// tMax bounds the tie count: each tied color consumes m samples.
		tMax := rest / m
		width := tMax + 1
		// g[s*width+t]: Σ Π q_e^{x_e}/x_e! over assignments to the colors
		// processed so far with Σx = s, t colors at exactly m, all ≤ m.
		// Rows past reach are never read.
		g, next := kn.g, kn.gNext
		clear(g[:width])
		g[0] = 1
		reach := 0
		for e, qe := range kn.q {
			if e == d || qe <= 0 {
				continue
			}
			nextReach := min(reach+m, rest)
			clear(next[:(nextReach+1)*width])
			qePow := 1.0
			for x := 0; x <= m && x <= rest; x++ {
				w := qePow / kn.fact[x]
				for s := 0; s <= reach && s+x <= rest; s++ {
					for t := 0; t <= tMax; t++ {
						v := g[s*width+t]
						if v == 0 {
							continue
						}
						nt := t
						if x == m {
							nt++
						}
						if nt > tMax {
							continue
						}
						next[(s+x)*width+nt] += v * w
					}
				}
				qePow *= qe
			}
			g, next, reach = next, g, nextReach
		}
		base := kn.fact[j] / kn.fact[m] * qdPow
		for t := 0; t <= tMax; t++ {
			p += base * g[rest*width+t] / float64(t+1)
		}
	}
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// Flows implements occupancy.FlowKernel: in the fraction limit the
// neighbor law seen by every node is x itself (self-exclusion is an O(1/n)
// correction), so the adoption probability of color d is the same DP
// evaluated at q = x regardless of the mover's color, and
// F_cd = x_c · P(adopt = d). One DP pass per destination color, shared
// across all sources.
func (kn *Kernel) Flows(x, out []float64) {
	k := len(x)
	kn.init(k)
	copy(kn.q, x)
	for d := 0; d < k; d++ {
		p := kn.adoptProb(d)
		for c := 0; c < k; c++ {
			if c == d {
				out[c*k+d] = 0
				continue
			}
			out[c*k+d] = x[c] * p
		}
	}
}

// stay fills p[c] = P(adopt = c) for an activated node of every nonempty
// color c.
func (kn *Kernel) stay(p []float64, counts []int64, n int64, withSelf bool) {
	for c, v := range counts {
		if v > 0 {
			kn.neighborLaw(counts, n, c, withSelf)
			p[c] = kn.adoptProb(c)
		}
	}
}

// EffectiveProb implements occupancy.Kernel. It evaluates one DP per
// nonempty color and records the leave weights for the SampleTransition
// that follows.
func (kn *Kernel) EffectiveProb(counts []int64, n int64, withSelf bool) float64 {
	kn.init(len(counts))
	return kn.tw.Leave(counts, n, withSelf, func(p []float64) { kn.stay(p, counts, n, withSelf) }) / float64(n)
}

// SampleTransition implements occupancy.Kernel: own color c with
// probability proportional to n_c · P(adopt ≠ c), then the adopted color
// d ≠ c with probability proportional to P(adopt = d). After an
// EffectiveProb on the same histogram it evaluates k − 1 DPs, one per
// destination.
func (kn *Kernel) SampleTransition(r *rng.RNG, counts []int64, n int64, withSelf bool) (from, to int) {
	kn.init(len(counts))
	from = kn.tw.PickFrom(r, counts, n, withSelf, func(p []float64) { kn.stay(p, counts, n, withSelf) })
	kn.neighborLaw(counts, n, from, withSelf)
	return from, kn.tw.PickTo(r, counts, from, func(p []float64) {
		for d := range counts {
			if d != from {
				p[d] = kn.adoptProb(d)
			}
		}
	})
}
