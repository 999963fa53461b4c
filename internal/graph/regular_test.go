package graph

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
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
// assembles the CSR. A dense graph, d > (n-1)/2, is the complement of the
// reference's own (n-1-d)-regular graph, assembled by NewAdjacency. The
// incremental repair must reproduce its graphs exactly.
func referenceRandomRegular(n, d int, r *rng.RNG) (*Adjacency, error) {
	if 2*d <= n-1 {
		stubs, err := referencePairing(n, d, r)
		if err != nil {
			return nil, err
		}
		return newCSRFromPairs(n, stubs)
	}
	stubs, err := referencePairing(n, n-1-d, r)
	if err != nil {
		return nil, err
	}
	adjacent := make([]map[int32]bool, n)
	for u := range adjacent {
		adjacent[u] = map[int32]bool{int32(u): true}
	}
	for i := 0; i < len(stubs); i += 2 {
		a, b := stubs[i], stubs[i+1]
		adjacent[a][b], adjacent[b][a] = true, true
	}
	rows := make([][]int32, n)
	for u := range rows {
		for v := int32(0); int(v) < n; v++ {
			if !adjacent[u][v] {
				rows[u] = append(rows[u], v)
			}
		}
	}
	return NewAdjacency(rows)
}

// referencePairing is the reference's repaired stub pairing of a d-regular
// graph on n nodes, for 0 <= d.
func referencePairing(n, d int, r *rng.RNG) ([]int32, error) {
	stubs := make([]int32, n*d)
	for i := range stubs {
		stubs[i] = int32(i / d)
	}
	referenceShuffle(r, stubs)
	return stubs, referenceRepair(stubs, n, d, r)
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
// reference's layout and arena, bit for bit, over shapes from the
// smallest to 10⁵ nodes. The first ten shapes are dense, drawn as
// complements; before they were, the repair ran out of passes at 37 of the
// 40 seeds of (8,7) and at every seed of (10,9), (16,15), (30,20) and
// (50,49). (9,4) and (10,5) sit on either side of d = (n-1)/2.
func TestRandomRegularMatchesReference(t *testing.T) {
	shapes := []struct{ n, d int }{
		{2, 1}, {3, 2}, {4, 3}, {5, 4}, {6, 5}, {8, 7}, {10, 9},
		{16, 15}, {30, 20}, {50, 49}, {9, 4}, {10, 5}, {64, 3}, {100, 2}, {101, 4},
		{300, 40}, {500, 8}, {1000, 16}, {20000, 8}, {100000, 8},
	}
	for _, sh := range shapes {
		seeds := 40
		if sh.n >= 20000 {
			seeds = 4
		}
		for seed := uint64(1); seed <= uint64(seeds); seed++ {
			want, err := referenceRandomRegular(sh.n, sh.d, rng.New(seed))
			if err != nil {
				t.Fatalf("n=%d d=%d seed=%d: reference: %v", sh.n, sh.d, seed, err)
			}
			got, err := NewRandomRegular(sh.n, sh.d, rng.New(seed))
			if err != nil {
				t.Fatalf("n=%d d=%d seed=%d: %v", sh.n, sh.d, seed, err)
			}
			if got.n != want.n || got.d != want.d || !slices.Equal(got.off, want.off) {
				t.Fatalf("n=%d d=%d seed=%d: layout (n %d, d %d, %d offsets) differs from the reference's (n %d, d %d, %d offsets)",
					sh.n, sh.d, seed, got.n, got.d, len(got.off), want.n, want.d, len(want.off))
			}
			if !slices.Equal(got.arena, want.arena) {
				t.Fatalf("n=%d d=%d seed=%d: arena differs from the reference's", sh.n, sh.d, seed)
			}
		}
	}
}

// TestRandomRegularGolden pins the arena's FNV-64a (each entry as 4
// little-endian bytes) for sparse graphs that take from 2 to 12 repair
// passes and for dense ones, drawn as complements. The sparse rows were
// captured before dense graphs were; the dense rows were re-captured when
// they became complements.
func TestRandomRegularGolden(t *testing.T) {
	for _, c := range []struct {
		n, d int
		seed uint64
		want uint64
	}{
		{3, 2, 1, 0xd4f7b32733da7575},      // K_3
		{6, 5, 1, 0x0c88e9ed8ae90a44},      // K_6
		{30, 20, 1, 0xd9db8dc3b1f75fc5},    // the complement of a 9-regular graph
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

// TestRandomRegularTrianglesPoisson is a distribution gate on the
// generator: in a uniform random d-regular graph the triangle count tends
// to a Poisson law of mean (d-1)³/6 (Bollobás 1980; Wormald 1981). Over
// seeds 1–600 at n = 1000, the mean count's z-score against that law must
// stay inside the two-sided α = 0.001 band, |z| < 3.29.
func TestRandomRegularTrianglesPoisson(t *testing.T) {
	const n, seeds = 1000, 600
	for _, d := range []int{4, 8} {
		total := 0
		for seed := uint64(1); seed <= seeds; seed++ {
			g, err := NewRandomRegular(n, d, rng.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			total += triangles(g)
		}
		lambda := float64((d-1)*(d-1)*(d-1)) / 6
		mean := float64(total) / seeds
		z := (mean - lambda) / math.Sqrt(lambda/seeds)
		t.Logf("d=%d: %.3f triangles per graph, Poisson mean %.3f, z = %.2f", d, mean, lambda, z)
		if math.Abs(z) >= 3.29 {
			t.Errorf("d=%d: mean triangle count %.3f is %.2f standard errors from the Poisson mean %.3f", d, mean, z, lambda)
		}
	}
}

// triangles counts the triangles of a simple graph, each once, as u < v < w.
func triangles(g *Adjacency) int {
	count := 0
	marked := make([]bool, g.N())
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			marked[v] = true
		}
		for _, v := range g.Neighbors(u) {
			if int(v) < u {
				continue
			}
			for _, w := range g.Neighbors(int(v)) {
				if w > v && marked[w] {
					count++
				}
			}
		}
		for _, v := range g.Neighbors(u) {
			marked[v] = false
		}
	}
	return count
}
