// Package rng provides a small, fast, deterministic pseudo-random number
// generator used by every simulator in this repository.
//
// The generator is xoshiro256** (Blackman & Vigna) seeded through SplitMix64,
// the combination recommended by the xoshiro authors. It is deterministic
// across platforms and Go versions, which the experiment harness relies on:
// every experiment table in EXPERIMENTS.md is regenerated from fixed seeds.
//
// RNG values are not safe for concurrent use; simulators that run trials in
// parallel derive one independent stream per trial via At or Jump.
//
// The generator's four state words are an Xoshiro, embedded in RNG, and
// every draw that needs nothing but those words (Uint64, Uint64n, Intn,
// IntnExcept, Float64, ExpFloat64) is written once, on Xoshiro. A hot loop
// copies the state into a local (x := r.Xoshiro), draws from the copy with
// the step and the bounded draw inlined, and writes it back
// (r.Xoshiro = x) when it is done. The contract: nothing else draws from
// the RNG while a loop holds its copy, or those draws would be repeated
// and overwritten by the write-back.
package rng

import (
	"math"
	"math/bits"
)

// RNG is a xoshiro256** pseudo-random number generator.
// The zero value is not usable; construct instances with New.
type RNG struct {
	// Xoshiro is the generator state, and its methods are RNG's basic
	// draws. See the package doc for copying it out of a hot loop.
	Xoshiro

	// spare holds a cached second output of the Box-Muller transform
	// for NormFloat64.
	spare    float64
	hasSpare bool

	// touched folds the loads of Shuffle's read-ahead pass, so that the
	// compiler keeps them; nothing reads it.
	touched int32
}

// New returns a generator deterministically seeded from seed.
// Distinct seeds yield (for all practical purposes) independent streams.
func New(seed uint64) *RNG {
	var s [4]uint64
	sm := seed
	for i := range s {
		sm, s[i] = splitMix64(sm)
	}
	// xoshiro256** must not be seeded with the all-zero state. SplitMix64
	// cannot produce four zero outputs in a row, but guard regardless.
	if s[0]|s[1]|s[2]|s[3] == 0 {
		s[0] = 0x9e3779b97f4a7c15
	}
	return &RNG{Xoshiro: Xoshiro{s[0], s[1], s[2], s[3]}}
}

// At returns the i-th derived stream of the generator family identified by
// seed. It is the canonical way to give each trial (or each node) its own
// independent generator: At(seed, i) and At(seed, j) are decorrelated for
// i != j because the pair is mixed through SplitMix64 before seeding.
func At(seed uint64, i int) *RNG {
	sm := seed ^ 0x632be59bd9b4e019
	sm, a := splitMix64(sm + uint64(i)*0x9e3779b97f4a7c15)
	_, b := splitMix64(sm)
	return New(a ^ (b << 1))
}

// splitMix64 advances a SplitMix64 state and returns (nextState, output).
func splitMix64(state uint64) (uint64, uint64) {
	state += 0x9e3779b97f4a7c15
	z := state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return state, z ^ (z >> 31)
}

// Xoshiro is the xoshiro256** state by itself. The four words are named
// fields rather than an array, which keeps Uint64 within the compiler's
// inlining budget; Uint64 and Bound both inline into a caller's loop.
type Xoshiro struct{ s0, s1, s2, s3 uint64 }

// Uint64 returns a uniformly distributed 64-bit value and advances the state.
func (x *Xoshiro) Uint64() uint64 {
	result := bits.RotateLeft64(x.s1*5, 7) * 9
	t := x.s1 << 17
	x.s2 ^= x.s0
	x.s3 ^= x.s1
	x.s1 ^= x.s2
	x.s0 ^= x.s3
	x.s2 ^= t
	x.s3 = bits.RotateLeft64(x.s3, 45)
	return result
}

// Bound maps w, a word just drawn with Uint64, onto [0, n) for n > 0: to
// its low bits when n is a power of two, else to the high word of Lemire's
// multiply-shift w·n. It reports ok = false when the low word of w·n falls
// below n (probability below n/2⁶⁴), the one case where w may lie in
// Lemire's biased region; the caller then finishes the draw with
// Xoshiro.Reject(w, n). Bound inlines; Reject is the rare loop out of line:
//
//	w := x.Uint64()
//	v, ok := rng.Bound(w, n)
//	if !ok {
//		v = x.Reject(w, n)
//	}
func Bound(w, n uint64) (v uint64, ok bool) {
	if n&(n-1) == 0 {
		return w & (n - 1), true
	}
	hi, lo := bits.Mul64(w, n)
	return hi, lo >= n
}

// Reject finishes a bounded draw that Bound did not accept: Lemire's
// rejection loop, which accepts w unless its low word lies below the exact
// threshold 2⁶⁴ mod n and otherwise draws further words until one clears
// it. n must not be a power of two (Bound accepts every such draw).
func (x *Xoshiro) Reject(w, n uint64) uint64 {
	hi, lo := bits.Mul64(w, n)
	thresh := -n % n
	for lo < thresh {
		hi, lo = bits.Mul64(x.Uint64(), n)
	}
	return hi
}

// Uint64n returns a uniform value in [0, n): one word through Bound, and
// Reject when Bound cannot accept it. n must be positive.
func (x *Xoshiro) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with n == 0")
	}
	w := x.Uint64()
	v, ok := Bound(w, n)
	if !ok {
		v = x.Reject(w, n)
	}
	return v
}

// Intn returns a uniform int in [0, n). n must be positive.
func (x *Xoshiro) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with n <= 0")
	}
	return int(x.Uint64n(uint64(n)))
}

// IntnExcept returns a uniform int in [0, n) \ {except}. n must be at least 2
// and except must lie in [0, n). It is the "sample a neighbor on the clique"
// primitive: one draw from [0, n-1) remapped around the excluded index.
func (x *Xoshiro) IntnExcept(n, except int) int {
	if n < 2 {
		panic("rng: IntnExcept with n < 2")
	}
	v := int(x.Uint64n(uint64(n - 1)))
	if v >= except {
		v++
	}
	return v
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (x *Xoshiro) Float64() float64 {
	return float64(x.Uint64()>>11) * 0x1p-53
}

// ExpFloat64 returns an exponentially distributed value with rate 1
// (mean 1), via inversion of the CDF.
func (x *Xoshiro) ExpFloat64() float64 {
	// 1 - Float64() is in (0, 1], so Log never sees zero.
	return -math.Log(1 - x.Float64())
}

// Bool returns true with probability 1/2.
func (r *RNG) Bool() bool { return r.Uint64()>>63 == 1 }

// Bernoulli returns true with probability p (clamped to [0, 1]).
func (r *RNG) Bernoulli(p float64) bool { return r.Float64() < p }

// NormFloat64 returns a standard normal value using the Box-Muller
// transform with caching of the second variate.
func (r *RNG) NormFloat64() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	var u float64
	for u == 0 {
		u = r.Float64()
	}
	v := r.Float64()
	mag := math.Sqrt(-2 * math.Log(u))
	r.spare = mag * math.Sin(2*math.Pi*v)
	r.hasSpare = true
	return mag * math.Cos(2*math.Pi*v)
}

// GammaFloat64 returns a Gamma(alpha, 1)-distributed value for alpha > 0
// using the Marsaglia–Tsang squeeze-rejection method (alpha >= 1) with the
// standard U^(1/alpha) boost for alpha < 1. The sampler is exact up to
// float64 evaluation of the acceptance test. Erlang(k) waiting times — the
// sum of k unit exponentials — are GammaFloat64(k), which is how the
// count-collapsed simulation engine materializes the elapsed time of k
// Poisson-clock ticks in O(1).
func (r *RNG) GammaFloat64(alpha float64) float64 {
	if alpha <= 0 || math.IsNaN(alpha) {
		panic("rng: GammaFloat64 with alpha <= 0")
	}
	boost := 1.0
	if alpha < 1 {
		// Gamma(a) = Gamma(a+1) · U^(1/a).
		var u float64
		for u == 0 {
			u = r.Float64()
		}
		boost = math.Pow(u, 1/alpha)
		alpha++
	}
	d := alpha - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := r.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.Float64()
		if u == 0 {
			continue
		}
		x2 := x * x
		if u < 1-0.0331*x2*x2 {
			return boost * d * v
		}
		if math.Log(u) < 0.5*x2+d*(1-v+math.Log(v)) {
			return boost * d * v
		}
	}
}

// PoissonInt64 returns a Poisson(lambda)-distributed count. Small rates use
// Knuth's product-of-uniforms inversion; larger rates use Hörmann's PTRS
// transformed-rejection sampler, which is exact (up to float64 evaluation of
// the acceptance test) for arbitrarily large lambda. The count-collapsed
// engine uses it to draw the number of scheduler ticks that land inside a
// parallel-time budget without generating them individually.
func (r *RNG) PoissonInt64(lambda float64) int64 {
	switch {
	case math.IsNaN(lambda) || lambda < 0:
		panic("rng: PoissonInt64 with lambda < 0")
	case lambda == 0:
		return 0
	case lambda < 30:
		// Knuth: count uniforms until their product drops below e^-lambda.
		limit := math.Exp(-lambda)
		var k int64
		p := r.Float64()
		for p > limit {
			k++
			p *= r.Float64()
		}
		return k
	default:
		return r.poissonPTRS(lambda)
	}
}

// poissonPTRS is the PTRS transformed-rejection Poisson sampler of Hörmann
// (1993), valid for lambda >= 10.
func (r *RNG) poissonPTRS(lambda float64) int64 {
	logLambda := math.Log(lambda)
	b := 0.931 + 2.53*math.Sqrt(lambda)
	a := -0.059 + 0.02483*b
	invAlpha := 1.1239 + 1.1328/(b-3.4)
	vr := 0.9277 - 3.6224/(b-2)
	for {
		u := r.Float64() - 0.5
		v := r.Float64()
		us := 0.5 - math.Abs(u)
		k := math.Floor((2*a/us+b)*u + lambda + 0.43)
		if us >= 0.07 && v <= vr {
			return int64(k)
		}
		if k < 0 || (us < 0.013 && v > us) {
			continue
		}
		lg, _ := math.Lgamma(k + 1)
		if math.Log(v*invAlpha/(a/(us*us)+b)) <= k*logLambda-lambda-lg {
			return int64(k)
		}
	}
}

// Perm returns a uniformly random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := 1; i < n; i++ {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// shuffleBatch is how many swap targets Shuffle draws before it swaps.
const shuffleBatch = 64

// Shuffle permutes s uniformly at random (Fisher–Yates): for i from
// len(s)-1 down to 1 it swaps s[i] with s[j], j = Intn(i+1), drawing
// exactly what that loop of Intn calls would. It draws on a local copy of
// the state with the bounded draw inlined, a batch of targets at a time,
// and reads every target of a batch before it swaps, so that on a slice
// larger than the caches the target misses overlap instead of waiting one
// after another. Swaps within a batch still run in order. The draws depend
// only on len(s), so slices of either element type of the same length are
// permuted alike.
func Shuffle[E ~int32 | ~uint8](r *RNG, s []E) {
	x := r.Xoshiro
	var (
		targets [shuffleBatch]uint64
		touched E
	)
	for hi := len(s) - 1; hi > 0; {
		batch := targets[:min(hi, shuffleBatch)]
		for b := range batch {
			n := uint64(hi - b + 1)
			w := x.Uint64()
			j, ok := Bound(w, n)
			if !ok {
				j = x.Reject(w, n)
			}
			batch[b] = j
		}
		for _, j := range batch {
			touched += s[j]
		}
		for b, j := range batch {
			i := hi - b
			s[i], s[j] = s[j], s[i]
		}
		hi -= len(batch)
	}
	r.Xoshiro = x
	r.touched += int32(touched)
}

// Jump advances the generator by 2^128 steps, equivalent to 2^128 calls to
// Uint64. Repeated Jump calls partition one seed's sequence into long
// non-overlapping sub-streams, an alternative to At for deriving per-node
// generators.
func (r *RNG) Jump() {
	jump := [4]uint64{
		0x180ec6d33cfd0aba, 0xd5a61266f0c9392c,
		0xa9582618e03fc9aa, 0x39abdc4529b1661c,
	}
	var s0, s1, s2, s3 uint64
	for _, j := range jump {
		for b := 0; b < 64; b++ {
			if j&(1<<uint(b)) != 0 {
				s0 ^= r.s0
				s1 ^= r.s1
				s2 ^= r.s2
				s3 ^= r.s3
			}
			r.Uint64()
		}
	}
	r.Xoshiro = Xoshiro{s0, s1, s2, s3}
	r.hasSpare = false
}

// Clone returns an independent copy of the generator in its current state.
// The copy and the original produce identical subsequent streams.
func (r *RNG) Clone() *RNG {
	cp := *r
	return &cp
}

// State returns the current 256-bit generator state, for test determinism
// assertions.
func (r *RNG) State() [4]uint64 { return [4]uint64{r.s0, r.s1, r.s2, r.s3} }
