package rng

import (
	"math"
	"math/bits"
	"testing"
)

// --- Uint64n Lemire-rejection edge cases --------------------------------

func TestUint64nOne(t *testing.T) {
	r := New(5)
	for i := 0; i < 1000; i++ {
		if v := r.Uint64n(1); v != 0 {
			t.Fatalf("Uint64n(1) = %d, want 0", v)
		}
	}
}

func TestUint64nPowersOfTwo(t *testing.T) {
	// The mask fast path must stay in range and keep every bit live: over
	// many draws each admissible bit of the result should flip at least
	// once (a masking bug that pins a bit would fail this).
	r := New(17)
	for _, shift := range []uint{1, 3, 16, 31, 32, 62, 63} {
		n := uint64(1) << shift
		var or, and uint64 = 0, ^uint64(0)
		for i := 0; i < 4096; i++ {
			v := r.Uint64n(n)
			if v >= n {
				t.Fatalf("Uint64n(2^%d) = %d out of range", shift, v)
			}
			or |= v
			and &= v
		}
		if or != n-1 {
			t.Errorf("Uint64n(2^%d): OR of 4096 draws = %#x, want all low bits %#x", shift, or, n-1)
		}
		if and != 0 {
			t.Errorf("Uint64n(2^%d): AND of 4096 draws = %#x, want 0", shift, and)
		}
	}
}

func TestUint64nNearMaxUint64(t *testing.T) {
	// n close to 2^64 exercises the Lemire rejection branch where the
	// acceptance threshold (-n mod n) is nearly the whole word: the sampler
	// must terminate, stay in range, and still cover the high end.
	r := New(23)
	for _, n := range []uint64{
		math.MaxUint64,     // 2^64 - 1
		math.MaxUint64 - 1, // 2^64 - 2
		1<<63 + 1,          // just past the largest power of two
		1<<63 + 12345,
	} {
		var max uint64
		var sum float64
		const draws = 20000
		for i := 0; i < draws; i++ {
			v := r.Uint64n(n)
			if v >= n {
				t.Fatalf("Uint64n(%d) = %d out of range", n, v)
			}
			if v > max {
				max = v
			}
			sum += float64(v)
		}
		// The mean of Uniform[0, n) is n/2; with 2e4 draws the sample mean
		// concentrates within ~1% (sigma/sqrt(draws) ~ 0.2% of n).
		mean := sum / draws
		if rel := math.Abs(mean-float64(n)/2) / float64(n); rel > 0.01 {
			t.Errorf("Uint64n(%d): mean %.3g deviates %.2f%% from n/2", n, mean, rel*100)
		}
		if float64(max) < 0.999*float64(n) {
			t.Errorf("Uint64n(%d): max of %d draws = %d never approached n", n, draws, max)
		}
	}
}

func TestUint64nZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uint64n(0) did not panic")
		}
	}()
	New(1).Uint64n(0)
}

// refUint64n is the bounded draw written out whole over RNG.Uint64, as one
// function: the low bits of one word when n is a power of two, else
// Lemire's multiply-shift with its rejection loop inline. It is the
// reference the split Bound/Reject draw is checked against.
func refUint64n(r *RNG, n uint64) uint64 {
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// TestBoundedDrawMatchesReference checks, draw for draw and word for word,
// that the bounded draw a hot loop makes on a local copy of the state
// (Uint64, Bound, and Reject when Bound cannot accept) and RNG's Uint64n,
// Intn and IntnExcept all draw what the whole-algorithm reference draws.
// n = 1 and 2 are the smallest bounds, 2²⁰ takes the low-bits path, and
// 3·2⁶¹ rejects about a quarter of its first words, so the rejection loop
// runs hundreds of times here where at simulable n it would almost never.
func TestBoundedDrawMatchesReference(t *testing.T) {
	const draws = 4000
	for _, n := range []uint64{1, 2, 3, 1 << 20, 1_000_003, 3 << 61, math.MaxUint64} {
		ref, viaRNG := New(9), New(9)
		local := New(9).Xoshiro
		rejected := 0
		for i := 0; i < draws; i++ {
			want := refUint64n(ref, n)
			w := local.Uint64()
			got, ok := Bound(w, n)
			if !ok {
				if _, lo := bits.Mul64(w, n); lo < -n%n {
					rejected++
				}
				got = local.Reject(w, n)
			}
			if got != want {
				t.Fatalf("n=%d draw %d: local %d, reference %d", n, i, got, want)
			}
			var rv uint64
			switch {
			case i%3 == 1 && n <= math.MaxInt64:
				rv = uint64(viaRNG.Intn(int(n)))
			case i%3 == 2 && n < math.MaxInt64:
				// IntnExcept(n+1, except) draws from [0, n) and skips except.
				except := int(n / 2)
				rv = uint64(viaRNG.IntnExcept(int(n)+1, except))
				if rv > uint64(except) {
					rv--
				} else if rv == uint64(except) {
					t.Fatalf("n=%d draw %d: IntnExcept returned the excluded %d", n, i, except)
				}
			default:
				rv = viaRNG.Uint64n(n)
			}
			if rv != want {
				t.Fatalf("n=%d draw %d: RNG %d, reference %d", n, i, rv, want)
			}
		}
		if st := (&RNG{Xoshiro: local}).State(); st != ref.State() || viaRNG.State() != ref.State() {
			t.Fatalf("n=%d: states diverged after %d draws", n, draws)
		}
		if n == 3<<61 && (rejected < draws/5 || rejected > draws*3/10) {
			t.Fatalf("n=3·2⁶¹: %d of %d first words rejected, want about a quarter", rejected, draws)
		}
	}
}

// --- GammaFloat64 --------------------------------------------------------

func TestGammaFloat64Moments(t *testing.T) {
	// Gamma(alpha, 1) has mean alpha and variance alpha; check both within
	// generous multiples of the standard error across shape regimes
	// (boosted alpha < 1, the squeeze path, and very large alpha where the
	// count-collapsed engine draws Erlang waiting times).
	r := New(31)
	for _, alpha := range []float64{0.5, 1, 2.5, 30, 1e4} {
		const draws = 30000
		var sum, sumSq float64
		for i := 0; i < draws; i++ {
			v := r.GammaFloat64(alpha)
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("GammaFloat64(%g) = %v", alpha, v)
			}
			sum += v
			sumSq += v * v
		}
		mean := sum / draws
		varc := sumSq/draws - mean*mean
		seMean := math.Sqrt(alpha / draws)
		if d := math.Abs(mean - alpha); d > 6*seMean {
			t.Errorf("GammaFloat64(%g): mean %.4f, want %.4f +/- %.4f", alpha, mean, alpha, 6*seMean)
		}
		if varc < 0.8*alpha || varc > 1.2*alpha {
			t.Errorf("GammaFloat64(%g): variance %.4f, want ~%.4f", alpha, varc, alpha)
		}
	}
}

func TestGammaFloat64ExponentialShape(t *testing.T) {
	// Gamma(1) is Exp(1): P(X > 1) = 1/e.
	r := New(37)
	const draws = 50000
	over := 0
	for i := 0; i < draws; i++ {
		if r.GammaFloat64(1) > 1 {
			over++
		}
	}
	got := float64(over) / draws
	want := math.Exp(-1)
	if math.Abs(got-want) > 0.01 {
		t.Errorf("P(Gamma(1) > 1) = %.4f, want %.4f", got, want)
	}
}

func TestGammaFloat64Panics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("GammaFloat64(0) did not panic")
		}
	}()
	New(1).GammaFloat64(0)
}

// --- PoissonInt64 --------------------------------------------------------

func TestPoissonInt64Moments(t *testing.T) {
	// Poisson(lambda) has mean and variance lambda; cover the Knuth
	// inversion branch, the PTRS branch, and a large rate of the order the
	// count-collapsed engine draws for tick budgets.
	r := New(41)
	for _, lambda := range []float64{0.5, 5, 29.5, 30, 1000, 1e6} {
		const draws = 20000
		var sum, sumSq float64
		for i := 0; i < draws; i++ {
			v := r.PoissonInt64(lambda)
			if v < 0 {
				t.Fatalf("PoissonInt64(%g) = %d", lambda, v)
			}
			f := float64(v)
			sum += f
			sumSq += f * f
		}
		mean := sum / draws
		varc := sumSq/draws - mean*mean
		seMean := math.Sqrt(lambda / draws)
		if d := math.Abs(mean - lambda); d > 6*seMean {
			t.Errorf("PoissonInt64(%g): mean %.4f, want %.4f +/- %.4f", lambda, mean, lambda, 6*seMean)
		}
		if varc < 0.85*lambda || varc > 1.15*lambda {
			t.Errorf("PoissonInt64(%g): variance %.1f, want ~%.1f", lambda, varc, lambda)
		}
	}
}

func TestPoissonInt64SmallRatePMF(t *testing.T) {
	// Chi-square of the empirical pmf against Poisson(3) over bins 0..11.
	r := New(43)
	const lambda, draws = 3.0, 40000
	const bins = 12
	var observed [bins]int
	for i := 0; i < draws; i++ {
		v := r.PoissonInt64(lambda)
		if v < bins {
			observed[v]++
		}
	}
	pmf := math.Exp(-lambda)
	var stat float64
	for k := 0; k < bins; k++ {
		expected := pmf * draws
		if expected > 5 {
			d := float64(observed[k]) - expected
			stat += d * d / expected
		}
		pmf *= lambda / float64(k+1)
	}
	// ~10 effective bins; chi-square 99.9th percentile at df=10 is ~29.6.
	if stat > 29.6 {
		t.Errorf("PoissonInt64(3) pmf chi-square = %.1f, want < 29.6 (observed %v)", stat, observed)
	}
}

func TestPoissonInt64Edges(t *testing.T) {
	r := New(47)
	if v := r.PoissonInt64(0); v != 0 {
		t.Fatalf("PoissonInt64(0) = %d, want 0", v)
	}
	// A huge rate must return a plausible count without overflow: within
	// 10 standard deviations of the mean.
	const lambda = 1e12
	v := float64(r.PoissonInt64(lambda))
	if math.Abs(v-lambda) > 10*math.Sqrt(lambda) {
		t.Fatalf("PoissonInt64(1e12) = %.0f, want within 10 sigma of 1e12", v)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("PoissonInt64(-1) did not panic")
		}
	}()
	r.PoissonInt64(-1)
}

func TestSamplersDeterministic(t *testing.T) {
	a, b := New(53), New(53)
	for i := 0; i < 100; i++ {
		if ga, gb := a.GammaFloat64(7), b.GammaFloat64(7); ga != gb {
			t.Fatalf("GammaFloat64 diverged at draw %d", i)
		}
		if pa, pb := a.PoissonInt64(100), b.PoissonInt64(100); pa != pb {
			t.Fatalf("PoissonInt64 diverged at draw %d", i)
		}
	}
}
