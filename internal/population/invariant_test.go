package population

import (
	"testing"

	"plurality/internal/rng"
)

// recount recomputes the color histogram from the per-node vector,
// returning the per-color counts and the number of undecided (None) nodes.
func recount(p *Population) ([]int64, int64) {
	counts := make([]int64, p.K())
	var undecided int64
	for u := 0; u < p.N(); u++ {
		if c := p.ColorOf(u); c == None {
			undecided++
		} else {
			counts[c]++
		}
	}
	return counts, undecided
}

func countsEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSetColorPreservesHistogramInvariant is the property test of the
// package's central invariant: after any sequence of SetColor mutations the
// cached counts must equal the histogram of the color vector. The
// count-collapsed engine leans on this — pop.Counts() is assumed to *be*
// the configuration. k is drawn from 1–6 and from either side of the
// one-byte layout's limit, 255 and 256.
func TestSetColorPreservesHistogramInvariant(t *testing.T) {
	r := rng.New(91)
	ks := []int{1, 2, 3, 4, 5, 6, narrowK, narrowK + 1}
	for trial := 0; trial < 80; trial++ {
		n := 2 + r.Intn(60)
		k := ks[r.Intn(len(ks))]
		initial := make([]int64, k)
		initial[r.Intn(k)] = int64(n) // all nodes start on one random color
		p, err := FromCounts(initial)
		if err != nil {
			t.Fatal(err)
		}
		steps := r.Intn(400)
		for i := 0; i < steps; i++ {
			// Mix undecided transitions (USD's None state) into the walk:
			// roughly one mutation in five parks a node in the undecided
			// bucket instead of a color.
			c := Color(r.Intn(k))
			if r.Intn(5) == 0 {
				c = None
			}
			p.SetColor(r.Intn(n), c)
		}
		want, wantUnd := recount(p)
		if got := p.Counts(); !countsEqual(got, want) {
			t.Fatalf("trial %d: counts %v drifted from histogram %v after %d SetColor calls",
				trial, got, want, steps)
		}
		if got := p.Undecided(); got != wantUnd {
			t.Fatalf("trial %d: undecided bucket %d drifted from histogram %d", trial, got, wantUnd)
		}
		total := p.Undecided()
		for _, v := range p.Counts() {
			total += v
		}
		if total != int64(n) {
			t.Fatalf("trial %d: holders + undecided = %d no longer sum to n=%d (counts %v)",
				trial, total, n, p.Counts())
		}
	}
}

func TestSetCounts(t *testing.T) {
	p, err := FromCounts([]int64{4, 3, 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.SetCounts([]int64{10, 0, 0}); err != nil {
		t.Fatal(err)
	}
	if !p.ConsensusOn(0) {
		t.Fatalf("SetCounts did not rewrite the colors: counts %v", p.Counts())
	}
	if got, want := p.Counts(), mustRecount(t, p); !countsEqual(got, want) {
		t.Fatalf("counts %v inconsistent with histogram %v", got, want)
	}
	if err := p.SetCounts([]int64{2, 3, 5}); err != nil {
		t.Fatal(err)
	}
	if got, want := p.Counts(), mustRecount(t, p); !countsEqual(got, want) {
		t.Fatalf("counts %v inconsistent with histogram %v", got, want)
	}

	for _, bad := range [][]int64{
		{10},         // wrong k
		{4, 3, 2},    // wrong total
		{11, 0, -1},  // negative
		{4, 3, 3, 0}, // wrong k (extra color)
		{0, 0, 0},    // zero total
	} {
		if err := p.SetCounts(bad); err == nil {
			t.Errorf("SetCounts(%v): no error", bad)
		}
	}
	// Failed calls must not have corrupted the state.
	if got, want := p.Counts(), mustRecount(t, p); !countsEqual(got, want) {
		t.Fatalf("after rejected SetCounts: counts %v inconsistent with histogram %v", got, want)
	}
}

// mustRecount recomputes the histogram and fails if any node is undecided
// (for tests of the fully decided write-back path).
func mustRecount(t *testing.T, p *Population) []int64 {
	t.Helper()
	counts, undecided := recount(p)
	if undecided != 0 {
		t.Fatalf("unexpected undecided nodes: %d", undecided)
	}
	return counts
}

func TestSetCountsUndecided(t *testing.T) {
	p, err := FromCounts([]int64{4, 3, 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.SetCountsUndecided([]int64{5, 2, 0}, 3); err != nil {
		t.Fatal(err)
	}
	want, wantUnd := recount(p)
	if got := p.Counts(); !countsEqual(got, want) || p.Undecided() != wantUnd || wantUnd != 3 {
		t.Fatalf("counts %v (undecided %d) inconsistent with histogram %v (undecided %d)",
			got, p.Undecided(), want, wantUnd)
	}
	if p.IsUnanimous() {
		t.Fatal("population with undecided nodes cannot be unanimous")
	}
	if got := p.Count(None); got != 3 {
		t.Fatalf("Count(None) = %d, want 3", got)
	}
	for _, bad := range []struct {
		counts    []int64
		undecided int64
	}{
		{[]int64{5, 2, 0}, 4},  // wrong total
		{[]int64{5, 2, 0}, -1}, // negative undecided
		{[]int64{10, 0, 0}, 1}, // wrong total
	} {
		if err := p.SetCountsUndecided(bad.counts, bad.undecided); err == nil {
			t.Errorf("SetCountsUndecided(%v, %d): no error", bad.counts, bad.undecided)
		}
	}
}
