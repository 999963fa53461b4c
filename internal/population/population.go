// Package population tracks the opinion (color) of every node together with
// live per-color counts, and provides the initial-distribution workloads
// used throughout the paper's theorems:
//
//   - Biased: c_1 = (1+ε)·c_2 with the rest split evenly (Theorem 1.3)
//   - GapSqrt: c_1 − c_2 = z·sqrt(n·ln n), c_2 = … = c_k (Theorem 1.1)
//   - GapSqrtPolylog: c_1 − c_2 = z·sqrt(n)·ln^{3/2} n (Theorem 1.2)
//   - TinyGap: c_1 − c_2 = z·sqrt(n) (the "C_2 wins with constant
//     probability" regime)
//
// A Population maintains the invariant that counts always equal the
// histogram of the color vector; SetColor is the only mutation point.
// Nodes may also hold no opinion at all — the undecided state of
// Undecided-State Dynamics, stored as None and tracked in a separate
// undecided bucket so that holders + undecided always equals n.
//
// The color vector takes one byte per node whenever k ≤ 255, which every
// paper workload satisfies, and four bytes per node above that. The layout
// follows from k when the population is built, and no method's result
// depends on it.
package population

import (
	"fmt"
	"math"
	"slices"

	"plurality/internal/rng"
)

// Color identifies an opinion. Valid colors are 0 … K()-1; None marks a node
// with no opinion — used both as a protocol intermediate and as the stored
// undecided state of Undecided-State Dynamics (see SetColor).
type Color int32

// None is the absence of a color.
const None Color = -1

// narrowK is the largest k whose colors, together with None, fit in one
// byte per node.
const narrowK = math.MaxUint8

// Population is the opinion state of n nodes over k colors, plus the
// number of nodes currently undecided (holding None). When k ≤ 255 it
// stores each node's color in one byte, color+1 with 0 for None; above
// that, as a four-byte Color.
type Population struct {
	// Exactly one of narrow (k ≤ narrowK) and wide holds the n colors.
	narrow    []uint8
	wide      []Color
	counts    []int64
	undecided int64
}

// alloc returns a population of n nodes over k colors whose counts are all
// zero and whose color vector, laid out for k, is not yet filled.
func alloc(n int64, k int) *Population {
	p := &Population{counts: make([]int64, k)}
	if k <= narrowK {
		p.narrow = make([]uint8, n)
	} else {
		p.wide = make([]Color, n)
	}
	return p
}

// New creates a population of n nodes over k colors, all initially holding
// color 0.
func New(n, k int) (*Population, error) {
	if n <= 0 {
		return nil, fmt.Errorf("population: n = %d, want > 0", n)
	}
	if k <= 0 {
		return nil, fmt.Errorf("population: k = %d, want > 0", k)
	}
	p := alloc(int64(n), k)
	p.counts[0] = int64(n)
	p.place(p.counts)
	return p, nil
}

// FromCounts creates a population whose color histogram equals counts,
// assigning colors to node indices in contiguous blocks (node order is
// irrelevant to clique protocols; use Shuffle for spatial topologies).
func FromCounts(counts []int64) (*Population, error) {
	if len(counts) == 0 {
		return nil, fmt.Errorf("population: empty counts")
	}
	var n int64
	for c, v := range counts {
		if v < 0 {
			return nil, fmt.Errorf("population: negative count %d for color %d", v, c)
		}
		n += v
	}
	if n == 0 {
		return nil, fmt.Errorf("population: zero total count")
	}
	p := alloc(n, len(counts))
	copy(p.counts, counts)
	p.place(counts)
	return p, nil
}

// place assigns colors to node indices in contiguous blocks, counts[c]
// nodes to color c in color order, and None to every node after them. It
// leaves the counts alone.
func (p *Population) place(counts []int64) {
	u := 0
	for c, v := range counts {
		for end := u + int(v); u < end; u++ {
			p.store(u, Color(c))
		}
	}
	for ; u < p.N(); u++ {
		p.store(u, None)
	}
}

// store writes c into node u's slot of the color vector, leaving the counts
// alone.
func (p *Population) store(u int, c Color) {
	if p.narrow != nil {
		p.narrow[u] = uint8(c + 1)
	} else {
		p.wide[u] = c
	}
}

// N returns the number of nodes.
func (p *Population) N() int { return len(p.narrow) + len(p.wide) }

// K returns the number of colors.
func (p *Population) K() int { return len(p.counts) }

// ColorOf returns node u's current color.
func (p *Population) ColorOf(u int) Color {
	if p.narrow != nil {
		return Color(p.narrow[u]) - 1
	}
	return p.wide[u]
}

// SetColor changes node u's color to c, maintaining the invariant that
// counts plus the undecided bucket always equal the histogram of the color
// vector. c may be None: the node moves to the undecided state
// (Undecided-State Dynamics), leaving every per-color count untouched.
//
// A color outside 0 … K()-1 other than None panics before SetColor changes
// anything: the new color's count is updated first.
func (p *Population) SetColor(u int, c Color) {
	old := p.ColorOf(u)
	if old == c {
		return
	}
	if c == None {
		p.undecided++
	} else {
		p.counts[c]++
	}
	if old == None {
		p.undecided--
	} else {
		p.counts[old]--
	}
	// The write is store's body, spelled out: calling store would put
	// SetColor past the inliner's budget, and the engines' loops call it
	// per activation.
	if p.narrow != nil {
		p.narrow[u] = uint8(c + 1)
	} else {
		p.wide[u] = c
	}
}

// Count returns the number of nodes holding color c; Count(None) returns
// the number of undecided nodes.
func (p *Population) Count(c Color) int64 {
	if c == None {
		return p.undecided
	}
	return p.counts[c]
}

// Undecided returns the number of nodes currently holding no opinion.
func (p *Population) Undecided() int64 { return p.undecided }

// Counts returns a copy of the per-color histogram.
func (p *Population) Counts() []int64 {
	out := make([]int64, len(p.counts))
	copy(out, p.counts)
	return out
}

// CountsView returns the live per-color histogram without copying. The
// slice aliases the population's internal state: callers must treat it as
// read-only and must not retain it across mutations. It exists for per-tick
// consumers (the adversary hooks) where Counts' copy would allocate on the
// hot loop.
func (p *Population) CountsView() []int64 { return p.counts }

// Fraction returns the fraction of nodes holding color c.
func (p *Population) Fraction(c Color) float64 {
	return float64(p.counts[c]) / float64(p.N())
}

// TopTwo returns the colors with the largest and second-largest support and
// their counts. Ties are broken by lower color index. For k = 1 the second
// color is None with count 0.
func (p *Population) TopTwo() (first Color, firstCount int64, second Color, secondCount int64) {
	first, second = 0, None
	firstCount = p.counts[0]
	for c := 1; c < len(p.counts); c++ {
		switch v := p.counts[c]; {
		case v > firstCount:
			second, secondCount = first, firstCount
			first, firstCount = Color(c), v
		case second == None || v > secondCount:
			second, secondCount = Color(c), v
		}
	}
	return first, firstCount, second, secondCount
}

// Plurality returns the color with the largest support.
func (p *Population) Plurality() Color {
	first, _, _, _ := p.TopTwo()
	return first
}

// Bias returns c_1 − c_2, the additive advantage of the plurality color.
func (p *Population) Bias() int64 {
	_, c1, _, c2 := p.TopTwo()
	return c1 - c2
}

// IsUnanimous reports whether every node holds the same color.
func (p *Population) IsUnanimous() bool {
	_, c1, _, _ := p.TopTwo()
	return c1 == int64(p.N())
}

// ConsensusOn reports whether every node holds color c.
func (p *Population) ConsensusOn(c Color) bool {
	return p.counts[c] == int64(p.N())
}

// SetCounts overwrites the population in place so its histogram equals
// counts, assigning colors to node indices in contiguous blocks exactly as
// FromCounts does. It is how the count-collapsed occupancy engine writes a
// finished run back into per-node form: on the clique, which node holds
// which color is irrelevant, only the histogram matters. The shape (n, k)
// must match.
func (p *Population) SetCounts(counts []int64) error {
	return p.SetCountsUndecided(counts, 0)
}

// SetCountsUndecided is SetCounts for populations with undecided nodes
// (Undecided-State Dynamics): counts[c] nodes hold color c, the trailing
// undecided nodes hold None, and counts total plus undecided must equal n.
func (p *Population) SetCountsUndecided(counts []int64, undecided int64) error {
	if len(counts) != len(p.counts) {
		return fmt.Errorf("population: SetCounts got %d colors, want %d", len(counts), len(p.counts))
	}
	if undecided < 0 {
		return fmt.Errorf("population: SetCounts negative undecided count %d", undecided)
	}
	n := undecided
	for c, v := range counts {
		if v < 0 {
			return fmt.Errorf("population: SetCounts negative count %d for color %d", v, c)
		}
		n += v
	}
	if n != int64(p.N()) {
		return fmt.Errorf("population: SetCounts total %d, want %d", n, p.N())
	}
	copy(p.counts, counts)
	p.undecided = undecided
	p.place(counts)
	return nil
}

// Shuffle permutes which node holds which color, uniformly at random,
// preserving the histogram. Needed when the topology is not the clique.
// The permutation depends only on r and n, not on the layout.
func (p *Population) Shuffle(r *rng.RNG) {
	if p.narrow != nil {
		rng.Shuffle(r, p.narrow)
	} else {
		rng.Shuffle(r, p.wide)
	}
}

// Clone returns a deep copy.
func (p *Population) Clone() *Population {
	return &Population{
		narrow:    slices.Clone(p.narrow),
		wide:      slices.Clone(p.wide),
		counts:    slices.Clone(p.counts),
		undecided: p.undecided,
	}
}

// Reset overwrites this population's state from src, which must have the
// same n and k (and so the same layout). It lets trial loops reuse
// allocations.
func (p *Population) Reset(src *Population) error {
	if p.N() != src.N() || len(p.counts) != len(src.counts) {
		return fmt.Errorf("population: Reset shape mismatch")
	}
	copy(p.narrow, src.narrow)
	copy(p.wide, src.wide)
	copy(p.counts, src.counts)
	p.undecided = src.undecided
	return nil
}

// --- Workload generators ------------------------------------------------

// BiasedCounts builds the Theorem 1.3 workload: the plurality color holds
// (1+eps) times the support of each other color, which share the remainder
// evenly. eps must be positive, k ≥ 2, and n large enough that every color
// is non-empty.
func BiasedCounts(n, k int, eps float64) ([]int64, error) {
	if k < 2 {
		return nil, fmt.Errorf("population: BiasedCounts k = %d, want >= 2", k)
	}
	if eps <= 0 {
		return nil, fmt.Errorf("population: BiasedCounts eps = %v, want > 0", eps)
	}
	if n < 2*k {
		return nil, fmt.Errorf("population: BiasedCounts n = %d too small for k = %d", n, k)
	}
	// c1 = (1+eps)·c, others = c with c = n / (k-1+1+eps).
	c := float64(n) / (float64(k-1) + 1 + eps)
	counts := make([]int64, k)
	counts[0] = int64(math.Round((1 + eps) * c))
	rest := int64(n) - counts[0]
	base := rest / int64(k-1)
	extra := int(rest % int64(k-1))
	for i := 1; i < k; i++ {
		counts[i] = base
		// Give the rounding remainder to the last colors; the runner-up
		// support is then base+1 at most, preserving c_1's margin.
		if i >= k-extra {
			counts[i]++
		}
	}
	if counts[0] <= counts[1] {
		return nil, fmt.Errorf("population: BiasedCounts produced no bias (n=%d k=%d eps=%v)", n, k, eps)
	}
	return counts, nil
}

// GapCounts builds a workload with a prescribed additive gap: the runner-up
// colors all share c_2 and the plurality color holds c_2 + gap. It returns
// an error if the gap cannot be realized.
func GapCounts(n, k int, gap int64) ([]int64, error) {
	if k < 2 {
		return nil, fmt.Errorf("population: GapCounts k = %d, want >= 2", k)
	}
	if gap < 0 || gap >= int64(n) {
		return nil, fmt.Errorf("population: GapCounts gap = %d out of range for n = %d", gap, n)
	}
	c2 := (int64(n) - gap) / int64(k)
	if c2 <= 0 {
		return nil, fmt.Errorf("population: GapCounts n = %d too small for k = %d, gap = %d", n, k, gap)
	}
	counts := make([]int64, k)
	counts[0] = c2 + gap
	for i := 1; i < k; i++ {
		counts[i] = c2
	}
	// Distribute rounding remainder to the plurality color so the gap is
	// at least the requested one.
	var total int64
	for _, v := range counts {
		total += v
	}
	counts[0] += int64(n) - total
	return counts, nil
}

// GapSqrtCounts builds the Theorem 1.1 workload:
// c_1 − c_2 = z·sqrt(n·ln n), c_2 = … = c_k.
func GapSqrtCounts(n, k int, z float64) ([]int64, error) {
	gap := int64(math.Ceil(z * math.Sqrt(float64(n)*math.Log(float64(n)))))
	return GapCounts(n, k, gap)
}

// GapSqrtPolylogCounts builds the Theorem 1.2 workload:
// c_1 − c_2 = z·sqrt(n)·ln^{3/2} n, c_2 = … = c_k.
func GapSqrtPolylogCounts(n, k int, z float64) ([]int64, error) {
	ln := math.Log(float64(n))
	gap := int64(math.Ceil(z * math.Sqrt(float64(n)) * math.Pow(ln, 1.5)))
	return GapCounts(n, k, gap)
}

// TinyGapCounts builds the negative-result workload of Theorem 1.1:
// c_1 − c_2 = z·sqrt(n), below the threshold needed for C_1 to win w.h.p.
func TinyGapCounts(n, k int, z float64) ([]int64, error) {
	gap := int64(math.Ceil(z * math.Sqrt(float64(n))))
	return GapCounts(n, k, gap)
}

// UniformCounts splits n nodes over k colors as evenly as possible, with
// color 0 receiving the remainder (so TopTwo stays deterministic).
func UniformCounts(n, k int) ([]int64, error) {
	if k <= 0 || n < k {
		return nil, fmt.Errorf("population: UniformCounts n = %d, k = %d", n, k)
	}
	counts := make([]int64, k)
	base := int64(n / k)
	for i := range counts {
		counts[i] = base
	}
	counts[0] += int64(n % k)
	return counts, nil
}

// ZipfCounts assigns supports proportional to the Zipf(s) weights over k
// colors, a skewed workload used in examples. Every color receives at
// least one node.
func ZipfCounts(n, k int, s float64) ([]int64, error) {
	if k <= 0 || n < k {
		return nil, fmt.Errorf("population: ZipfCounts n = %d, k = %d", n, k)
	}
	var norm float64
	for i := 1; i <= k; i++ {
		norm += math.Pow(float64(i), -s)
	}
	counts := make([]int64, k)
	var total int64
	for i := range counts {
		counts[i] = int64(math.Floor(float64(n) * math.Pow(float64(i+1), -s) / norm))
		if counts[i] == 0 {
			counts[i] = 1
		}
		total += counts[i]
	}
	// Fix the rounding drift on the head color (it is the largest).
	counts[0] += int64(n) - total
	if counts[0] <= 0 {
		return nil, fmt.Errorf("population: ZipfCounts infeasible for n = %d, k = %d, s = %v", n, k, s)
	}
	return counts, nil
}
