package population

import (
	"math"
	"testing"
	"testing/quick"

	"plurality/internal/rng"
)

func sum(counts []int64) int64 {
	var s int64
	for _, v := range counts {
		s += v
	}
	return s
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 2); err == nil {
		t.Error("n=0 should fail")
	}
	if _, err := New(5, 0); err == nil {
		t.Error("k=0 should fail")
	}
	p, err := New(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if p.N() != 5 || p.K() != 3 || p.Count(0) != 5 {
		t.Fatalf("unexpected initial state: n=%d k=%d c0=%d", p.N(), p.K(), p.Count(0))
	}
}

func TestFromCountsValidation(t *testing.T) {
	if _, err := FromCounts(nil); err == nil {
		t.Error("empty counts should fail")
	}
	if _, err := FromCounts([]int64{2, -1}); err == nil {
		t.Error("negative count should fail")
	}
	if _, err := FromCounts([]int64{0, 0}); err == nil {
		t.Error("zero total should fail")
	}
}

func TestFromCountsHistogram(t *testing.T) {
	counts := []int64{3, 0, 2}
	p, err := FromCounts(counts)
	if err != nil {
		t.Fatal(err)
	}
	if p.N() != 5 || p.K() != 3 {
		t.Fatalf("n=%d k=%d", p.N(), p.K())
	}
	got := make([]int64, 3)
	for u := 0; u < p.N(); u++ {
		got[p.ColorOf(u)]++
	}
	for c := range counts {
		if got[c] != counts[c] || p.Count(Color(c)) != counts[c] {
			t.Fatalf("color %d: histogram %d, Count %d, want %d", c, got[c], p.Count(Color(c)), counts[c])
		}
	}
}

func TestFromCountsDoesNotAliasInput(t *testing.T) {
	counts := []int64{2, 2}
	p, err := FromCounts(counts)
	if err != nil {
		t.Fatal(err)
	}
	counts[0] = 99
	if p.Count(0) != 2 {
		t.Fatal("population aliased caller's counts slice")
	}
}

func TestSetColorMaintainsCounts(t *testing.T) {
	p, err := FromCounts([]int64{3, 1})
	if err != nil {
		t.Fatal(err)
	}
	p.SetColor(0, 1)
	if p.Count(0) != 2 || p.Count(1) != 2 {
		t.Fatalf("counts after move: %v", p.Counts())
	}
	// No-op move.
	p.SetColor(0, 1)
	if p.Count(0) != 2 || p.Count(1) != 2 {
		t.Fatalf("counts after no-op: %v", p.Counts())
	}
}

func TestCountInvariantUnderRandomMutation(t *testing.T) {
	// Property: after arbitrary SetColor sequences, counts match the
	// histogram of colors and sum to n.
	p, err := FromCounts([]int64{10, 10, 10})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(1)
	check := func(steps uint8) bool {
		for i := 0; i < int(steps); i++ {
			p.SetColor(r.Intn(p.N()), Color(r.Intn(p.K())))
		}
		hist := make([]int64, p.K())
		for u := 0; u < p.N(); u++ {
			hist[p.ColorOf(u)]++
		}
		for c := 0; c < p.K(); c++ {
			if hist[c] != p.Count(Color(c)) {
				return false
			}
		}
		return sum(p.Counts()) == int64(p.N())
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTopTwo(t *testing.T) {
	tests := []struct {
		name       string
		counts     []int64
		wantFirst  Color
		wantC1     int64
		wantSecond Color
		wantC2     int64
	}{
		{name: "distinct", counts: []int64{5, 9, 2}, wantFirst: 1, wantC1: 9, wantSecond: 0, wantC2: 5},
		{name: "tie breaks low", counts: []int64{4, 4, 1}, wantFirst: 0, wantC1: 4, wantSecond: 1, wantC2: 4},
		{name: "plurality last", counts: []int64{1, 2, 7}, wantFirst: 2, wantC1: 7, wantSecond: 1, wantC2: 2},
		{name: "empty colors", counts: []int64{3, 0, 0}, wantFirst: 0, wantC1: 3, wantSecond: 1, wantC2: 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p, err := FromCounts(tt.counts)
			if err != nil {
				t.Fatal(err)
			}
			f, c1, s, c2 := p.TopTwo()
			if f != tt.wantFirst || c1 != tt.wantC1 || s != tt.wantSecond || c2 != tt.wantC2 {
				t.Fatalf("TopTwo = (%d,%d,%d,%d), want (%d,%d,%d,%d)",
					f, c1, s, c2, tt.wantFirst, tt.wantC1, tt.wantSecond, tt.wantC2)
			}
		})
	}
}

func TestTopTwoSingleColor(t *testing.T) {
	p, err := FromCounts([]int64{4})
	if err != nil {
		t.Fatal(err)
	}
	f, c1, s, c2 := p.TopTwo()
	if f != 0 || c1 != 4 || s != None || c2 != 0 {
		t.Fatalf("TopTwo = (%d,%d,%d,%d)", f, c1, s, c2)
	}
}

func TestBiasAndConsensus(t *testing.T) {
	p, err := FromCounts([]int64{7, 3})
	if err != nil {
		t.Fatal(err)
	}
	if p.Bias() != 4 {
		t.Fatalf("Bias = %d, want 4", p.Bias())
	}
	if p.IsUnanimous() {
		t.Error("should not be unanimous")
	}
	for u := 0; u < p.N(); u++ {
		p.SetColor(u, 0)
	}
	if !p.IsUnanimous() || !p.ConsensusOn(0) || p.ConsensusOn(1) {
		t.Error("consensus detection wrong after forcing color 0")
	}
	if p.Plurality() != 0 {
		t.Error("plurality should be 0")
	}
}

func TestFraction(t *testing.T) {
	p, err := FromCounts([]int64{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Fraction(1); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("Fraction(1) = %v", got)
	}
}

func TestShufflePreservesHistogram(t *testing.T) {
	p, err := FromCounts([]int64{5, 7, 9})
	if err != nil {
		t.Fatal(err)
	}
	before := p.Counts()
	p.Shuffle(rng.New(2))
	after := p.Counts()
	for c := range before {
		if before[c] != after[c] {
			t.Fatalf("histogram changed: %v -> %v", before, after)
		}
	}
	hist := make([]int64, p.K())
	for u := 0; u < p.N(); u++ {
		hist[p.ColorOf(u)]++
	}
	for c := range hist {
		if hist[c] != after[c] {
			t.Fatal("counts out of sync with colors after shuffle")
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	p, err := FromCounts([]int64{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	q := p.Clone()
	q.SetColor(0, 1)
	if p.Count(1) != 2 || q.Count(1) != 3 {
		t.Fatal("clone not independent")
	}
}

func TestReset(t *testing.T) {
	src, err := FromCounts([]int64{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	p := src.Clone()
	p.SetColor(0, 1)
	if err := p.Reset(src); err != nil {
		t.Fatal(err)
	}
	if p.Count(0) != 2 || p.ColorOf(0) != 0 {
		t.Fatal("reset did not restore state")
	}
	other, err := FromCounts([]int64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Reset(other); err == nil {
		t.Error("shape mismatch should fail")
	}
}

// TestLayoutsAgree holds a one-byte population (k = 4) and a four-byte one
// (k = 256, colors 0–3 filled) to the same colors at every node, from
// construction through SetColor, Shuffle from one seed, Clone, Reset and
// SetCountsUndecided.
func TestLayoutsAgree(t *testing.T) {
	counts := []int64{40, 25, 20, 15}
	narrow, err := FromCounts(counts)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := FromCounts(append(append([]int64(nil), counts...), make([]int64, 252)...))
	if err != nil {
		t.Fatal(err)
	}
	if narrow.narrow == nil || wide.wide == nil {
		t.Fatal("k = 4 should store one byte per node and k = 256 four")
	}
	same := func(step string, a, b *Population) {
		t.Helper()
		for u := 0; u < a.N(); u++ {
			if a.ColorOf(u) != b.ColorOf(u) {
				t.Fatalf("after %s: node %d reads %d and %d", step, u, a.ColorOf(u), b.ColorOf(u))
			}
		}
		if a.N() != b.N() || a.Undecided() != b.Undecided() || !countsEqual(a.Counts(), b.Counts()[:a.K()]) {
			t.Fatalf("after %s: n %d/%d, undecided %d/%d, counts %v vs %v",
				step, a.N(), b.N(), a.Undecided(), b.Undecided(), a.Counts(), b.Counts()[:a.K()])
		}
	}
	same("FromCounts", narrow, wide)
	for _, p := range []*Population{narrow, wide} {
		p.SetColor(0, 3)
		p.SetColor(1, None)
		p.SetColor(99, 1)
	}
	same("SetColor", narrow, wide)
	narrow.Shuffle(rng.New(7))
	wide.Shuffle(rng.New(7))
	same("Shuffle", narrow, wide)
	nc, wc := narrow.Clone(), wide.Clone()
	same("Clone", nc, wc)
	if nc.narrow == nil || wc.wide == nil {
		t.Fatal("Clone changed the layout")
	}
	if err := nc.SetCountsUndecided([]int64{30, 30, 20, 5}, 15); err != nil {
		t.Fatal(err)
	}
	if err := wc.SetCountsUndecided(append([]int64{30, 30, 20, 5}, make([]int64, 252)...), 15); err != nil {
		t.Fatal(err)
	}
	same("SetCountsUndecided", nc, wc)
	if nc.ColorOf(nc.N()-1) != None {
		t.Fatalf("SetCountsUndecided left the last node on %d, want None", nc.ColorOf(nc.N()-1))
	}
	if err := nc.Reset(narrow); err != nil {
		t.Fatal(err)
	}
	if err := wc.Reset(wide); err != nil {
		t.Fatal(err)
	}
	same("Reset", nc, wc)
	same("Reset, against its source", nc, narrow)
}

// TestSetColorOutOfRangePanics: a color at or past k panics in either
// layout, and leaves the population as it was. In the one-byte layout
// color 255 would wrap to the stored form of None, so k = 255 is checked at
// exactly that color.
func TestSetColorOutOfRangePanics(t *testing.T) {
	for _, tc := range []struct {
		k int
		c Color
	}{{4, 4}, {narrowK, narrowK}, {narrowK + 1, narrowK + 1}} {
		p, err := New(3, tc.k)
		if err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("k = %d: SetColor(0, %d) did not panic; node 0 now reads %d", tc.k, tc.c, p.ColorOf(0))
				}
			}()
			p.SetColor(0, tc.c)
		}()
		if p.ColorOf(0) != 0 || p.Count(0) != 3 || p.Undecided() != 0 {
			t.Errorf("k = %d: after the panic node 0 reads %d, Count(0) = %d, undecided %d; want 0, 3, 0",
				tc.k, p.ColorOf(0), p.Count(0), p.Undecided())
		}
	}
}

func TestBiasedCounts(t *testing.T) {
	tests := []struct {
		name string
		n, k int
		eps  float64
	}{
		{name: "small", n: 1000, k: 4, eps: 0.5},
		{name: "many colors", n: 100000, k: 64, eps: 0.1},
		{name: "two colors", n: 10000, k: 2, eps: 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			counts, err := BiasedCounts(tt.n, tt.k, tt.eps)
			if err != nil {
				t.Fatal(err)
			}
			if got := sum(counts); got != int64(tt.n) {
				t.Fatalf("total = %d, want %d", got, tt.n)
			}
			var maxRest int64
			for _, v := range counts[1:] {
				if v > maxRest {
					maxRest = v
				}
				if v <= 0 {
					t.Fatalf("empty minority color: %v", counts)
				}
			}
			ratio := float64(counts[0]) / float64(maxRest)
			// Allow rounding slack of one node per color.
			if ratio < 1+tt.eps-2*float64(tt.k)/float64(tt.n)-0.01 {
				t.Fatalf("ratio %.4f < 1+eps = %.4f (counts %v...)", ratio, 1+tt.eps, counts[:min(4, len(counts))])
			}
		})
	}
}

func TestBiasedCountsValidation(t *testing.T) {
	if _, err := BiasedCounts(100, 1, 0.5); err == nil {
		t.Error("k=1 should fail")
	}
	if _, err := BiasedCounts(100, 4, 0); err == nil {
		t.Error("eps=0 should fail")
	}
	if _, err := BiasedCounts(5, 4, 0.5); err == nil {
		t.Error("tiny n should fail")
	}
}

func TestGapCountsFamilies(t *testing.T) {
	const n, k = 100000, 8
	type gen func(n, k int, z float64) ([]int64, error)
	ln := math.Log(float64(n))
	tests := []struct {
		name    string
		make    gen
		wantGap float64
	}{
		{name: "GapSqrt", make: GapSqrtCounts, wantGap: math.Sqrt(float64(n) * ln)},
		{name: "GapSqrtPolylog", make: GapSqrtPolylogCounts, wantGap: math.Sqrt(float64(n)) * math.Pow(ln, 1.5)},
		{name: "TinyGap", make: TinyGapCounts, wantGap: math.Sqrt(float64(n))},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			counts, err := tt.make(n, k, 1)
			if err != nil {
				t.Fatal(err)
			}
			if got := sum(counts); got != n {
				t.Fatalf("total = %d", got)
			}
			gap := counts[0] - counts[1]
			if float64(gap) < tt.wantGap || float64(gap) > tt.wantGap+float64(k)+1 {
				t.Fatalf("gap = %d, want ~%.0f", gap, tt.wantGap)
			}
			for i := 2; i < k; i++ {
				if counts[i] != counts[1] {
					t.Fatalf("runner-up counts unequal: %v", counts)
				}
			}
		})
	}
}

func TestGapCountsValidation(t *testing.T) {
	if _, err := GapCounts(100, 1, 5); err == nil {
		t.Error("k=1 should fail")
	}
	if _, err := GapCounts(100, 4, -1); err == nil {
		t.Error("negative gap should fail")
	}
	if _, err := GapCounts(100, 4, 100); err == nil {
		t.Error("gap >= n should fail")
	}
	if _, err := GapCounts(10, 20, 1); err == nil {
		t.Error("k > n should fail")
	}
}

func TestUniformCounts(t *testing.T) {
	counts, err := UniformCounts(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if sum(counts) != 10 {
		t.Fatalf("total = %d", sum(counts))
	}
	if counts[0] != 4 || counts[1] != 3 || counts[2] != 3 {
		t.Fatalf("counts = %v", counts)
	}
	if _, err := UniformCounts(2, 3); err == nil {
		t.Error("n < k should fail")
	}
}

func TestZipfCounts(t *testing.T) {
	counts, err := ZipfCounts(10000, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sum(counts) != 10000 {
		t.Fatalf("total = %d", sum(counts))
	}
	for i := 1; i < len(counts); i++ {
		if counts[i] > counts[i-1] {
			t.Fatalf("zipf counts not non-increasing: %v", counts)
		}
		if counts[i] <= 0 {
			t.Fatalf("empty color: %v", counts)
		}
	}
	if _, err := ZipfCounts(2, 5, 1); err == nil {
		t.Error("n < k should fail")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
