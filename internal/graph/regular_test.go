package graph

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"slices"
	"testing"

	"plurality/internal/rng"
)

func TestNewRandomRegularValidation(t *testing.T) {
	r := rng.New(1)
	if _, err := NewRandomRegular(1, 1, r); err == nil {
		t.Error("n=1 should fail")
	}
	if _, err := NewRandomRegular(10, 0, r); err == nil {
		t.Error("d=0 should fail")
	}
	if _, err := NewRandomRegular(10, 10, r); err == nil {
		t.Error("d=n should fail")
	}
	if _, err := NewRandomRegular(7, 3, r); err == nil {
		t.Error("odd n·d should fail")
	}
}

// TestRandomRegularSimple: the configuration-model sampler must deliver a
// simple d-regular graph — exact degrees, no self-loops, no multi-edges,
// symmetric adjacency — across degrees that force the repair path (plain
// rejection at d = 8 would need ~e^16 attempts).
func TestRandomRegularSimple(t *testing.T) {
	for _, tc := range []struct{ n, d int }{{100, 2}, {101, 4}, {500, 8}, {64, 3}} {
		g, err := NewRandomRegular(tc.n, tc.d, rng.New(uint64(1000+tc.n)))
		if err != nil {
			t.Fatalf("n=%d d=%d: %v", tc.n, tc.d, err)
		}
		if g.N() != tc.n {
			t.Fatalf("N = %d, want %d", g.N(), tc.n)
		}
		for u := 0; u < tc.n; u++ {
			nbrs := g.Neighbors(u)
			if len(nbrs) != tc.d {
				t.Fatalf("n=%d d=%d: node %d has degree %d", tc.n, tc.d, u, len(nbrs))
			}
			seen := make(map[int32]bool, tc.d)
			for _, v := range nbrs {
				if int(v) == u {
					t.Fatalf("n=%d d=%d: self-loop at %d", tc.n, tc.d, u)
				}
				if seen[v] {
					t.Fatalf("n=%d d=%d: multi-edge %d-%d", tc.n, tc.d, u, v)
				}
				seen[v] = true
				back := false
				for _, w := range g.Neighbors(int(v)) {
					if int(w) == u {
						back = true
						break
					}
				}
				if !back {
					t.Fatalf("n=%d d=%d: edge %d-%d not symmetric", tc.n, tc.d, u, v)
				}
			}
		}
	}
}

// TestRandomRegularSampleUniformChiSquare mirrors the GNP/Cycle/Torus
// sampling tests: Sample must draw each of a node's d neighbors with equal
// probability.
func TestRandomRegularSampleUniformChiSquare(t *testing.T) {
	for _, d := range []int{3, 4, 8} {
		g, err := NewRandomRegular(200, d, rng.New(uint64(77+d)))
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(uint64(7 + d))
		for _, u := range []int{0, 111, 199} {
			nbrs := g.Neighbors(u)
			index := make(map[int32]int, d)
			for i, v := range nbrs {
				index[v] = i
			}
			draws := 15000 * d
			counts := make([]int, d)
			for i := 0; i < draws; i++ {
				v := int32(g.Sample(r, u))
				slot, ok := index[v]
				if !ok {
					t.Fatalf("d=%d node %d: sampled non-neighbor %d", d, u, v)
				}
				counts[slot]++
			}
			chiSquareUniform(t, fmt.Sprintf("random-regular d=%d node %d", d, u), counts, draws)
		}
	}
}

func TestRandomRegularDeterministic(t *testing.T) {
	a, err := NewRandomRegular(128, 4, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRandomRegular(128, 4, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 128; u++ {
		av, bv := a.Neighbors(u), b.Neighbors(u)
		for i := range av {
			if av[i] != bv[i] {
				t.Fatalf("node %d adjacency differs between identically seeded graphs", u)
			}
		}
	}
}

// TestRandomRegularEdgeDiversity guards against a degenerate repair loop:
// across seeds, the sampled graphs must actually differ (the pairing is
// random, not a fixed canonical matching).
func TestRandomRegularEdgeDiversity(t *testing.T) {
	a, err := NewRandomRegular(100, 4, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRandomRegular(100, 4, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for u := 0; u < 100 && same; u++ {
		av, bv := a.Neighbors(u), b.Neighbors(u)
		for i := range av {
			if av[i] != bv[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("two differently seeded random regular graphs are identical")
	}
}

// referenceRandomRegular is NewRandomRegular, for valid n and d, with its
// former repair: every pass re-scatters the whole pairing into two
// incidence arrays and insertion-sorts every row, and newCSRFromPairs
// assembles the CSR. The incremental repair must reproduce its graphs and
// its errors exactly.
func referenceRandomRegular(n, d int, r *rng.RNG) (*Adjacency, error) {
	stubs := make([]int32, n*d)
	for i := range stubs {
		stubs[i] = int32(i / d)
	}
	referenceShuffle(r, stubs)
	if err := referenceRepair(stubs, n, d, r); err != nil {
		return nil, err
	}
	return newCSRFromPairs(n, stubs)
}

// referenceShuffle is Fisher–Yates over Intn, one draw per swap.
func referenceShuffle(r *rng.RNG, s []int32) {
	for i := len(s) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}

func referenceRepair(stubs []int32, n, d int, r *rng.RNG) error {
	m := len(stubs) / 2
	var (
		nbrAll = make([]int32, len(stubs))
		pidAll = make([]int32, len(stubs))
		fill   = make([]int32, n)
		inPool = make([]bool, m)
		pool   []int32
		loose  []int32
	)
	for pass := 0; pass < maxRepairPasses; pass++ {
		for i := range fill {
			fill[i] = 0
		}
		for i := 0; i < m; i++ {
			a, b := stubs[2*i], stubs[2*i+1]
			nbrAll[int(a)*d+int(fill[a])] = b
			pidAll[int(a)*d+int(fill[a])] = int32(i)
			fill[a]++
			nbrAll[int(b)*d+int(fill[b])] = a
			pidAll[int(b)*d+int(fill[b])] = int32(i)
			fill[b]++
		}
		pool = pool[:0]
		for u := 0; u < n; u++ {
			base := u * d
			for i := 1; i < d; i++ {
				for j := base + i; j > base && nbrAll[j] < nbrAll[j-1]; j-- {
					nbrAll[j], nbrAll[j-1] = nbrAll[j-1], nbrAll[j]
					pidAll[j], pidAll[j-1] = pidAll[j-1], pidAll[j]
				}
			}
			for i := 0; i < d; i++ {
				p := pidAll[base+i]
				bad := int(nbrAll[base+i]) == u ||
					(i > 0 && nbrAll[base+i] == nbrAll[base+i-1])
				if bad && !inPool[p] {
					inPool[p] = true
					pool = append(pool, p)
				}
			}
		}
		if len(pool) == 0 {
			return nil
		}
		for extra := len(pool); extra > 0 && len(pool) < m; {
			p := int32(r.Intn(m))
			if !inPool[p] {
				inPool[p] = true
				pool = append(pool, p)
				extra--
			}
		}
		loose = loose[:0]
		for _, p := range pool {
			loose = append(loose, stubs[2*p], stubs[2*p+1])
		}
		referenceShuffle(r, loose)
		for j, p := range pool {
			stubs[2*p] = loose[2*j]
			stubs[2*p+1] = loose[2*j+1]
			inPool[p] = false
		}
	}
	return fmt.Errorf("graph: random %d-regular pairing on %d nodes failed to simplify after %d repair passes", d, n, maxRepairPasses)
}

// TestRandomRegularMatchesReference: the incremental repair builds the
// reference's arena and offsets, bit for bit, over shapes from the
// smallest to 10⁵ nodes, and fails with the reference's error wherever the
// reference fails: the near-complete shapes run out of repair passes at
// the given number of seeds.
func TestRandomRegularMatchesReference(t *testing.T) {
	shapes := []struct{ n, d, fails int }{
		{2, 1, 0}, {3, 2, 0}, {4, 3, 0}, {5, 4, 0}, {6, 5, 0}, {8, 7, 37}, {10, 9, 40},
		{16, 15, 40}, {30, 20, 40}, {50, 49, 40}, {64, 3, 0}, {100, 2, 0}, {101, 4, 0},
		{300, 40, 0}, {500, 8, 0}, {1000, 16, 0}, {20000, 8, 0}, {100000, 8, 0},
	}
	for _, sh := range shapes {
		seeds := 40
		if sh.n >= 20000 {
			seeds = 4
		}
		failed := 0
		for seed := uint64(1); seed <= uint64(seeds); seed++ {
			want, wantErr := referenceRandomRegular(sh.n, sh.d, rng.New(seed))
			got, err := NewRandomRegular(sh.n, sh.d, rng.New(seed))
			if wantErr != nil {
				failed++
				if err == nil || err.Error() != wantErr.Error() {
					t.Fatalf("n=%d d=%d seed=%d: error %v, want %v", sh.n, sh.d, seed, err, wantErr)
				}
				continue
			}
			if err != nil {
				t.Fatalf("n=%d d=%d seed=%d: %v", sh.n, sh.d, seed, err)
			}
			if !slices.Equal(got.off, want.off) {
				t.Fatalf("n=%d d=%d seed=%d: row offsets differ from the reference's", sh.n, sh.d, seed)
			}
			if !slices.Equal(got.arena, want.arena) {
				t.Fatalf("n=%d d=%d seed=%d: arena differs from the reference's", sh.n, sh.d, seed)
			}
		}
		if failed != sh.fails {
			t.Errorf("n=%d d=%d: the reference failed at %d of %d seeds, want %d", sh.n, sh.d, failed, seeds, sh.fails)
		}
	}
}

// TestRandomRegularGolden pins the arena's FNV-64a (each entry as 4
// little-endian bytes) for graphs that take from 2 to 31 repair passes.
func TestRandomRegularGolden(t *testing.T) {
	for _, c := range []struct {
		n, d int
		seed uint64
		want uint64
	}{
		{3, 2, 1, 0xa2687b33f371ca25},      // 3 passes
		{6, 5, 1, 0x1a46b2bb51041d34},      // 31 passes
		{64, 3, 1, 0x76ea41bf47f652d5},     // 2 passes
		{300, 40, 1, 0xcdecfc32473c9781},   // 12 passes
		{1000, 16, 1, 0x6db40e988f09a635},  // 4 passes
		{20000, 8, 3, 0xb18ad93ca06529b9},  // 4 passes
		{100000, 8, 1, 0x8c11028576cf5e0d}, // 2 passes
	} {
		g, err := NewRandomRegular(c.n, c.d, rng.New(c.seed))
		if err != nil {
			t.Fatalf("n=%d d=%d seed=%d: %v", c.n, c.d, c.seed, err)
		}
		h := fnv.New64a()
		var b [4]byte
		for _, v := range g.arena {
			binary.LittleEndian.PutUint32(b[:], uint32(v))
			h.Write(b[:])
		}
		if got := h.Sum64(); got != c.want {
			t.Errorf("n=%d d=%d seed=%d: arena hash %#016x, want %#016x", c.n, c.d, c.seed, got, c.want)
		}
	}
}

// BenchmarkNewRandomRegular builds the random 8-regular graph on 10⁶ nodes
// that the per-node CSR runs use.
func BenchmarkNewRandomRegular(b *testing.B) {
	for i := 0; b.Loop(); i++ {
		if _, err := NewRandomRegular(1_000_000, 8, rng.New(uint64(i)+1)); err != nil {
			b.Fatal(err)
		}
	}
}
