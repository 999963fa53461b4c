package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("draw %d: generators with equal seeds diverged: %d != %d", i, got, want)
		}
	}
}

func TestNewDistinctSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 produced %d identical draws out of 100", same)
	}
}

func TestNewZeroSeedUsable(t *testing.T) {
	r := New(0)
	if r.State() == [4]uint64{} {
		t.Fatal("zero seed produced all-zero state")
	}
	if a, b := r.Uint64(), r.Uint64(); a == 0 && b == 0 {
		t.Fatal("zero-seeded generator emits zeros")
	}
}

func TestAtStreamsIndependent(t *testing.T) {
	const seed = 7
	a := At(seed, 0)
	b := At(seed, 1)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams 0 and 1 collided on %d of 1000 draws", same)
	}
}

func TestAtDeterministic(t *testing.T) {
	if got, want := At(9, 3).Uint64(), At(9, 3).Uint64(); got != want {
		t.Fatalf("At(9,3) not deterministic: %d != %d", got, want)
	}
}

func TestUint64nRange(t *testing.T) {
	r := New(3)
	for _, n := range []uint64{1, 2, 3, 7, 64, 100, 1 << 40} {
		for i := 0; i < 200; i++ {
			if v := r.Uint64n(n); v >= n {
				t.Fatalf("Uint64n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestUint64nUniform(t *testing.T) {
	// Chi-square-style tolerance check over 10 buckets.
	r := New(11)
	const n, draws = 10, 100000
	var counts [n]int
	for i := 0; i < draws; i++ {
		counts[r.Uint64n(n)]++
	}
	want := float64(draws) / n
	for b, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: count %d deviates from expected %.0f by more than 5 sigma", b, c, want)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnExcept(t *testing.T) {
	r := New(5)
	const n = 7
	for except := 0; except < n; except++ {
		seen := make(map[int]int)
		for i := 0; i < 7000; i++ {
			v := r.IntnExcept(n, except)
			if v == except {
				t.Fatalf("IntnExcept(%d, %d) returned the excluded value", n, except)
			}
			if v < 0 || v >= n {
				t.Fatalf("IntnExcept(%d, %d) = %d out of range", n, except, v)
			}
			seen[v]++
		}
		if len(seen) != n-1 {
			t.Fatalf("IntnExcept(%d, %d) covered %d values, want %d", n, except, len(seen), n-1)
		}
	}
}

func TestIntnExceptUniform(t *testing.T) {
	r := New(17)
	const n, draws = 5, 40000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.IntnExcept(n, 2)]++
	}
	want := float64(draws) / (n - 1)
	for v, c := range counts {
		if v == 2 {
			continue
		}
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("value %d: count %d deviates from %.0f", v, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(8)
	for i := 0; i < 100000; i++ {
		if v := r.Float64(); v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := New(13)
	const draws = 200000
	var sum float64
	for i := 0; i < draws; i++ {
		v := r.ExpFloat64()
		if v < 0 {
			t.Fatalf("ExpFloat64() = %v negative", v)
		}
		sum += v
	}
	mean := sum / draws
	if math.Abs(mean-1) > 0.02 {
		t.Fatalf("ExpFloat64 mean = %.4f, want ~1", mean)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(21)
	const draws = 200000
	var sum, sumSq float64
	for i := 0; i < draws; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / draws
	variance := sumSq/draws - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("NormFloat64 mean = %.4f, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("NormFloat64 variance = %.4f, want ~1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(2)
	check := func(n uint8) bool {
		size := int(n%64) + 1
		p := r.Perm(size)
		if len(p) != size {
			return false
		}
		seen := make([]bool, size)
		for _, v := range p {
			if v < 0 || v >= size || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestShuffleKeepsMultiset(t *testing.T) {
	r := New(4)
	xs := []int32{1, 2, 3, 4, 5, 6, 7, 8}
	var sum int32
	for _, v := range xs {
		sum += v
	}
	Shuffle(r, xs)
	var got int32
	for _, v := range xs {
		got += v
	}
	if got != sum {
		t.Fatalf("shuffle changed element sum: %d != %d", got, sum)
	}
}

// TestShuffleMatchesIntnLoop: Shuffle swaps and draws exactly what the
// plain Fisher–Yates loop over Intn does, on either side of its batch
// boundaries, and leaves the generator in the same state.
func TestShuffleMatchesIntnLoop(t *testing.T) {
	for _, size := range []int{0, 1, 2, 3, shuffleBatch, shuffleBatch + 1, shuffleBatch + 2, 2*shuffleBatch + 1, 1000} {
		got := make([]int32, size)
		want := make([]int32, size)
		for i := range got {
			got[i] = int32(i % 7)
			want[i] = int32(i % 7)
		}
		r, ref := New(uint64(size)+11), New(uint64(size)+11)
		Shuffle(r, got)
		for i := size - 1; i > 0; i-- {
			j := ref.Intn(i + 1)
			want[i], want[j] = want[j], want[i]
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("size %d: element %d is %d, want %d", size, i, got[i], want[i])
			}
		}
		if r.State() != ref.State() {
			t.Fatalf("size %d: generator state differs from the Intn loop's", size)
		}
	}
}

func TestJumpDecorrelates(t *testing.T) {
	a := New(99)
	b := a.Clone()
	b.Jump()
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("jumped stream collided on %d of 1000 draws", same)
	}
}

func TestCloneReproduces(t *testing.T) {
	a := New(123)
	a.Uint64()
	b := a.Clone()
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("clone diverged from original")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	r := New(31)
	const draws = 100000
	hits := 0
	for i := 0; i < draws; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	rate := float64(hits) / draws
	if math.Abs(rate-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) rate = %.4f", rate)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = r.Uint64()
	}
	_ = sink
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink = r.Intn(1_000_003)
	}
	_ = sink
}
