package occupancy

import (
	"slices"

	"plurality/internal/rng"
)

// Kernel is the histogram-level transition law of a memoryless rule on the
// complete graph: everything the leap engine needs to simulate the
// occupancy process one *effective* activation at a time. An activation is
// effective when it changes the color histogram; all other activations are
// no-ops the engine skips in bulk.
//
// Both methods see the live counts (summing to n) and the sampling mode of
// the clique (withSelf: neighbor draws include the activated node itself).
// Probabilities are computed in float64 — exact up to rounding, the same
// precision class as the Bernoulli/geometric draws of the per-node engines.
type Kernel interface {
	// EffectiveProb returns the probability that a single activation of a
	// uniformly random node changes the histogram.
	EffectiveProb(counts []int64, n int64, withSelf bool) float64
	// SampleTransition draws the (from, to) color pair of a histogram
	// change, conditioned on the activation being effective. from != to.
	SampleTransition(r *rng.RNG, counts []int64, n int64, withSelf bool) (from, to int)
}

// Kerneled is implemented by rules that expose their exact count-level
// transition law. A rule without a kernel still runs count-collapsed, just
// activation by activation instead of transition by transition.
type Kerneled interface {
	OccupancyKernel() Kernel
}

// FlowKernel is a Kernel that additionally exposes the full per-activation
// flow law in the n → ∞ fraction limit — what the hybrid leap engine needs
// to fire many transitions per step (tau-leaping) and to integrate the
// mean-field ODE. Flows fills out (len k·k, row-major over k = len(x)
// buckets) with
//
//	out[c*k+d] = lim P(one activation moves a node from bucket c to d)
//
// at fractions x, for c ≠ d; diagonal entries must be written as 0. The
// limit drops the O(1/n) self-exclusion corrections of the exact kernel,
// which is sound exactly where the leap engine runs: buckets below the
// exact-regime cutoff are simulated by the jump chain, never leapt.
type FlowKernel interface {
	Kernel
	Flows(x, out []float64)
}

// sumSquares returns Σ counts[c]² in float64 (exact up to rounding; the
// kernels only ever use it inside float64 probabilities).
func sumSquares(counts []int64) float64 {
	var a float64
	for _, v := range counts {
		f := float64(v)
		a += f * f
	}
	return a
}

// --- Two-Choices ---------------------------------------------------------

// TwoChoicesKernel is the count-level law of the Two-Choices rule: sample
// two neighbors with replacement, adopt their color iff they agree. With
// own color c and both samples d ≠ c the histogram moves one node from c to
// d; every other outcome is a no-op. Writing A = Σ n_d² and B = Σ n_d³, the
// per-activation effective probability is (A·n − B)/(n·(n−1)²) without
// self-sampling (the δ-correction for d = c cancels because d = c is never
// effective) and (A·n − B)/n³ with it.
type TwoChoicesKernel struct{}

// EffectiveProb implements Kernel.
func (TwoChoicesKernel) EffectiveProb(counts []int64, n int64, withSelf bool) float64 {
	var a, b float64
	for _, v := range counts {
		f := float64(v)
		f2 := f * f
		a += f2
		b += f2 * f
	}
	nf := float64(n)
	qden := nf - 1
	if withSelf {
		qden = nf
	}
	return (a*nf - b) / (nf * qden * qden)
}

// SampleTransition implements Kernel: (from, to) with probability
// proportional to n_from · n_to², to ≠ from. The weight total has the
// closed form A·n − B, so no extra scan is needed before the pick.
func (TwoChoicesKernel) SampleTransition(r *rng.RNG, counts []int64, n int64, withSelf bool) (from, to int) {
	var a, b float64
	for _, v := range counts {
		f := float64(v)
		f2 := f * f
		a += f2
		b += f2 * f
	}
	from = WeightedPick(r, a*float64(n)-b, counts, func(c int, f float64) float64 { return f * (a - f*f) })
	ff := float64(counts[from])
	to = WeightedPickExcept(r, a-ff*ff, counts, from, func(c int, f float64) float64 { return f * f })
	return from, to
}

// Flows implements FlowKernel: a node of color c moves to d when both
// samples hit d, so F_cd = x_c · x_d².
func (TwoChoicesKernel) Flows(x, out []float64) {
	k := len(x)
	for c := 0; c < k; c++ {
		for d := 0; d < k; d++ {
			if d == c {
				out[c*k+d] = 0
				continue
			}
			out[c*k+d] = x[c] * x[d] * x[d]
		}
	}
}

// --- Voter ---------------------------------------------------------------

// VoterKernel is the count-level law of the Voter rule: sample one neighbor
// and adopt its color unconditionally. The activation is effective iff the
// sample differs from the own color, which happens with total probability
// (n² − A)/(n(n−1)) without self-sampling and (n² − A)/n² with it.
type VoterKernel struct{}

// EffectiveProb implements Kernel.
func (VoterKernel) EffectiveProb(counts []int64, n int64, withSelf bool) float64 {
	a := sumSquares(counts)
	nf := float64(n)
	qden := nf - 1
	if withSelf {
		qden = nf
	}
	return (nf*nf - a) / (nf * qden)
}

// SampleTransition implements Kernel: (from, to) with probability
// proportional to n_from · n_to, to ≠ from.
func (VoterKernel) SampleTransition(r *rng.RNG, counts []int64, n int64, withSelf bool) (from, to int) {
	nf := float64(n)
	a := sumSquares(counts)
	from = WeightedPick(r, nf*nf-a, counts, func(c int, f float64) float64 { return f * (nf - f) })
	to = WeightedPickExcept(r, nf-float64(counts[from]), counts, from, func(c int, f float64) float64 { return f })
	return from, to
}

// Flows implements FlowKernel: a node of color c adopts the single sample,
// so F_cd = x_c · x_d. The flow matrix is symmetric — the Voter drift is
// identically zero (the martingale), which the leap engine's ODE regime
// detects as a stall and sidesteps.
func (VoterKernel) Flows(x, out []float64) {
	k := len(x)
	for c := 0; c < k; c++ {
		for d := 0; d < k; d++ {
			if d == c {
				out[c*k+d] = 0
				continue
			}
			out[c*k+d] = x[c] * x[d]
		}
	}
}

// --- 3-Majority ----------------------------------------------------------

// ThreeMajorityKernel is the count-level law of the 3-Majority rule: sample
// three neighbors with replacement, adopt the majority color among the
// samples, or the first sample when all three differ. Given the neighbor
// distribution q of an activated node, the adopted color is d with
// probability 3q_d²(1−q_d) + q_d³ + q_d[(1−q_d)² − (S₂ − q_d²)] where
// S₂ = Σ q_e² (the three terms: exactly two matches anywhere, all three
// match, first-sample tiebreak over three distinct colors). It carries
// TransitionWeights scratch, so each run gets a fresh instance.
type ThreeMajorityKernel struct {
	tw TransitionWeights
}

// threeMajAdopt returns P(adopted color = d) for a color with neighbor
// probability q under sample second moment s2. Rounding can push the
// all-distinct term slightly negative near consensus; the result is clamped
// at 0.
func threeMajAdopt(q, s2 float64) float64 {
	p := 3*q*q*(1-q) + q*q*q + q*((1-q)*(1-q)-(s2-q*q))
	if p < 0 {
		return 0
	}
	return p
}

// neighborProb returns the probability that an activated node of color c
// samples color d, in either sampling mode.
func neighborProb(counts []int64, nf float64, c, d int, withSelf bool) float64 {
	if withSelf {
		return float64(counts[d]) / nf
	}
	nd := float64(counts[d])
	if d == c {
		nd--
	}
	return nd / (nf - 1)
}

// secondMoment returns the sample second moment S₂ = Σ q_e² an activated
// node of color c sees, in either sampling mode. a is Σ n_e².
func secondMoment(counts []int64, nf, a float64, c int, withSelf bool) float64 {
	if withSelf {
		return a / (nf * nf)
	}
	qden := nf - 1
	return (a - 2*float64(counts[c]) + 1) / (qden * qden)
}

// threeMajStay fills p[c] = P(adopt = c) for an activated node of every
// nonempty color c. a is Σ n_e².
func threeMajStay(p []float64, counts []int64, nf, a float64, withSelf bool) {
	for c, v := range counts {
		if v > 0 {
			p[c] = threeMajAdopt(neighborProb(counts, nf, c, c, withSelf), secondMoment(counts, nf, a, c, withSelf))
		}
	}
}

// EffectiveProb implements Kernel.
func (tk *ThreeMajorityKernel) EffectiveProb(counts []int64, n int64, withSelf bool) float64 {
	nf := float64(n)
	a := sumSquares(counts)
	return tk.tw.Leave(counts, n, withSelf, func(p []float64) { threeMajStay(p, counts, nf, a, withSelf) }) / nf
}

// SampleTransition implements Kernel: own color c with probability
// proportional to n_c · P(adopt ≠ c), then the adopted color d ≠ c with
// probability proportional to P(adopt = d). Unlike the product-form
// kernels, the weight totals have no cheap closed form, so each stage
// evaluates its weights into scratch once and picks from them; the leave
// weights come from the preceding EffectiveProb when it saw this
// histogram.
func (tk *ThreeMajorityKernel) SampleTransition(r *rng.RNG, counts []int64, n int64, withSelf bool) (from, to int) {
	nf := float64(n)
	a := sumSquares(counts)
	from = tk.tw.PickFrom(r, counts, n, withSelf, func(p []float64) { threeMajStay(p, counts, nf, a, withSelf) })
	s2 := secondMoment(counts, nf, a, from, withSelf)
	return from, tk.tw.PickTo(r, counts, from, func(p []float64) {
		for d := range counts {
			if d != from {
				p[d] = threeMajAdopt(neighborProb(counts, nf, from, d, withSelf), s2)
			}
		}
	})
}

// Flows implements FlowKernel: in the fraction limit the neighbor law is x
// itself, so F_cd = x_c · threeMajAdopt(x_d, S₂) with S₂ = Σ x_e².
func (*ThreeMajorityKernel) Flows(x, out []float64) {
	k := len(x)
	var s2 float64
	for _, f := range x {
		s2 += f * f
	}
	for c := 0; c < k; c++ {
		for d := 0; d < k; d++ {
			if d == c {
				out[c*k+d] = 0
				continue
			}
			out[c*k+d] = x[c] * threeMajAdopt(x[d], s2)
		}
	}
}

// --- weighted sampling helpers ------------------------------------------
// Exported so kernel implementations in the protocol packages (usd,
// jmajority) share the same rounding-drift handling as the built-ins.

// WeightedPick draws an index with probability proportional to weight(c,
// float64(counts[c])), given the precomputed total. Rounding drift is
// absorbed by returning the last positively weighted index when the scan
// runs past the end.
func WeightedPick(r *rng.RNG, total float64, counts []int64, weight func(c int, f float64) float64) int {
	x := r.Float64() * total
	last := 0
	for c := range counts {
		w := weight(c, float64(counts[c]))
		if w <= 0 {
			continue
		}
		if x < w {
			return c
		}
		x -= w
		last = c
	}
	return last
}

// WeightedPickExcept is WeightedPick over all indices but skip.
func WeightedPickExcept(r *rng.RNG, total float64, counts []int64, skip int, weight func(c int, f float64) float64) int {
	x := r.Float64() * total
	last := -1
	for c := range counts {
		if c == skip {
			continue
		}
		w := weight(c, float64(counts[c]))
		if w <= 0 {
			continue
		}
		if x < w {
			return c
		}
		x -= w
		last = c
	}
	if last >= 0 {
		return last
	}
	// Degenerate weights (all zero by rounding): fall back to any index
	// different from skip; callers guarantee k >= 2.
	if skip == 0 {
		return 1
	}
	return 0
}

// TransitionWeights is the per-run scratch of a kernel whose weight totals
// have no closed form (3-Majority, j-Majority). EffectiveProb's Leave
// records the leave weights n_c·P(adopt ≠ c) with the counts, n and
// sampling mode they belong to, and the next PickFrom on that histogram
// draws from the record instead of evaluating them again. A record serves
// at most once and any mismatch evaluates afresh, so weights never go
// stale. The zero value is ready to use.
type TransitionWeights struct {
	leave, dest []float64
	total       float64
	counts      []int64
	n           int64
	withSelf    bool
	held        bool // recorded by Leave, not yet used by PickFrom
}

// Leave evaluates the leave weights of counts and records them: stay fills
// p[c] with the probability that an activated node of color c adopts c, for
// every nonempty color c, and the leave weight is n_c·(1 − p[c]), or 0 when
// rounding makes that negative. It returns their total.
func (tw *TransitionWeights) Leave(counts []int64, n int64, withSelf bool, stay func(p []float64)) float64 {
	tw.leave = slices.Grow(tw.leave[:0], len(counts))[:len(counts)]
	stay(tw.leave)
	var total float64
	for c, v := range counts {
		w := 1 - tw.leave[c]
		tw.leave[c] = 0
		if v > 0 && w > 0 {
			tw.leave[c] = float64(v) * w
			total += tw.leave[c]
		}
	}
	tw.total = total
	tw.counts = append(tw.counts[:0], counts...)
	tw.n, tw.withSelf, tw.held = n, withSelf, true
	return total
}

// PickFrom draws the source color of a transition with probability
// proportional to its leave weight, from the record when it belongs to this
// histogram and through Leave otherwise.
func (tw *TransitionWeights) PickFrom(r *rng.RNG, counts []int64, n int64, withSelf bool, stay func(p []float64)) int {
	if !tw.held || tw.n != n || tw.withSelf != withSelf || !slices.Equal(tw.counts, counts) {
		tw.Leave(counts, n, withSelf, stay)
	}
	tw.held = false
	return pickWeight(r, tw.total, tw.leave, -1)
}

// PickTo draws the destination color d ≠ from with probability proportional
// to p[d], which adopt fills for every d ≠ from, evaluating each weight
// once.
func (tw *TransitionWeights) PickTo(r *rng.RNG, counts []int64, from int, adopt func(p []float64)) int {
	tw.dest = slices.Grow(tw.dest[:0], len(counts))[:len(counts)]
	adopt(tw.dest)
	var total float64
	for d, w := range tw.dest {
		if d != from {
			total += w
		}
	}
	return pickWeight(r, total, tw.dest, from)
}

// pickWeight is WeightedPick (skip < 0) and WeightedPickExcept over
// weights already evaluated into w: the same draw, scan and fallbacks.
func pickWeight(r *rng.RNG, total float64, w []float64, skip int) int {
	x := r.Float64() * total
	last := -1
	for c, wc := range w {
		if c == skip || wc <= 0 {
			continue
		}
		if x < wc {
			return c
		}
		x -= wc
		last = c
	}
	if last >= 0 {
		return last
	}
	if skip == 0 {
		return 1
	}
	return 0
}
