package graph

import (
	"slices"
	"testing"
	"testing/quick"

	"plurality/internal/rng"
)

// randomJagged generates a random connected-enough adjacency structure
// (every node gets at least one neighbor) from a seed, returning the jagged
// reference representation.
func randomJagged(seed uint64) [][]int32 {
	r := rng.New(seed)
	n := 2 + r.Intn(40)
	adj := make([][]int32, n)
	edges := n + r.Intn(3*n)
	for i := 0; i < edges; i++ {
		u := r.Intn(n)
		v := r.IntnExcept(n, u)
		adj[u] = append(adj[u], int32(v))
		adj[v] = append(adj[v], int32(u))
	}
	for u := range adj {
		if len(adj[u]) == 0 {
			v := r.IntnExcept(n, u)
			adj[u] = append(adj[u], int32(v))
			adj[v] = append(adj[v], int32(u))
		}
	}
	return adj
}

// regularJagged returns the rows of a random regular graph drawn from a
// seed, copied out of the arena into the jagged reference representation.
func regularJagged(seed uint64) [][]int32 {
	r := rng.New(seed)
	n := 2 + r.Intn(40)
	d := 1 + r.Intn(min(n-1, 8))
	if n*d%2 != 0 {
		d++ // n is odd, so d < n-1
	}
	g, err := NewRandomRegular(n, d, r)
	if err != nil {
		panic(err)
	}
	adj := make([][]int32, n)
	for u := range adj {
		adj[u] = append([]int32(nil), g.Neighbors(u)...)
	}
	return adj
}

// TestCSRMatchesJaggedProperty: over random graphs, the CSR representation
// must agree with the jagged reference on N, Degree and Neighbors, and
// Sample must be distribution-identical — it consumes the RNG exactly as
// the jagged form did (one Intn(degree) draw indexing the neighbor list),
// so identically seeded draws must return identical nodes. Every other
// check takes the rows of a random regular graph, which NewAdjacency packs
// without row offsets, so both layouts are compared with the reference.
func TestCSRMatchesJaggedProperty(t *testing.T) {
	var calls, regular int
	check := func(seed uint64) bool {
		adj := randomJagged(seed)
		if calls++; calls%2 == 0 {
			adj = regularJagged(seed)
		}
		g, err := NewAdjacency(adj)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if _, d := g.Regular(); d > 0 {
			regular++
		}
		if g.N() != len(adj) {
			return false
		}
		for u, nbrs := range adj {
			if g.Degree(u) != len(nbrs) {
				return false
			}
			if !slices.Equal(g.Neighbors(u), nbrs) {
				return false
			}
		}
		// Identical RNG streams must produce identical samples: the CSR
		// draw is nbrs[r.Intn(deg)] exactly like the jagged draw.
		ra, rb := rng.New(seed^0x9e3779b97f4a7c15), rng.New(seed^0x9e3779b97f4a7c15)
		for trial := 0; trial < 200; trial++ {
			u := int(ra.Uint64n(uint64(len(adj))))
			if int(rb.Uint64n(uint64(len(adj)))) != u {
				return false
			}
			want := int(adj[u][ra.Intn(len(adj[u]))])
			if g.Sample(rb, u) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
	if regular < calls/2 {
		t.Fatalf("%d of %d graphs kept no row offsets; want at least the %d regular ones", regular, calls, calls/2)
	}
}

// TestLayoutFollowsRows: every constructor keeps no row offsets exactly
// when all rows have one length, and Regular reports that length.
func TestLayoutFollowsRows(t *testing.T) {
	regular := func(g *Adjacency) bool {
		arena, d := g.Regular()
		if (g.off == nil) != (d > 0) {
			t.Fatalf("Regular reports d = %d with %d offsets", d, len(g.off))
		}
		if d > 0 && (len(arena) != g.N()*d || &arena[0] != &g.arena[0]) {
			t.Fatalf("Regular returns %d entries of a %d-node %d-regular arena", len(arena), g.N(), d)
		}
		return d > 0
	}
	rows := [][]int32{{1, 2}, {0, 2}, {0, 1}, {1, 2}}
	g, err := NewAdjacency(rows)
	if err != nil {
		t.Fatal(err)
	}
	if !regular(g) || g.Degree(3) != 2 {
		t.Fatal("NewAdjacency kept row offsets for rows of one length")
	}
	// One row of another length, first, inside or last, keeps offsets.
	for u := range rows {
		odd := slices.Clone(rows)
		odd[u] = append(slices.Clone(odd[u]), 3)
		if g, err = NewAdjacency(odd); err != nil {
			t.Fatal(err)
		}
		if regular(g) {
			t.Fatalf("NewAdjacency dropped the row offsets with row %d longer", u)
		}
	}
	for _, sh := range []struct{ n, d int }{{2, 1}, {3, 2}, {8, 3}, {10, 5}, {10, 6}, {30, 20}, {500, 8}} {
		g, err := NewRandomRegular(sh.n, sh.d, rng.New(1))
		if err != nil {
			t.Fatal(err)
		}
		if !regular(g) || g.Degree(sh.n-1) != sh.d {
			t.Fatalf("NewRandomRegular(%d, %d) kept row offsets", sh.n, sh.d)
		}
	}
	// newCSRFromPairs: the 4-cycle's edges, then one chord more.
	square := []int32{0, 1, 1, 2, 2, 3, 3, 0}
	if g, err = newCSRFromPairs(4, square); err != nil {
		t.Fatal(err)
	}
	if !regular(g) {
		t.Fatal("newCSRFromPairs kept row offsets for the 4-cycle")
	}
	if g, err = newCSRFromPairs(4, append(square, 0, 2)); err != nil {
		t.Fatal(err)
	}
	if regular(g) || g.Degree(0) != 3 || g.Degree(1) != 2 {
		t.Fatal("newCSRFromPairs dropped the row offsets of the 4-cycle with a chord")
	}
	// G(n,p) at p = 1 is K_n.
	if g, err = NewGNP(6, 1, rng.New(1)); err != nil {
		t.Fatal(err)
	}
	if !regular(g) || g.Degree(0) != 5 {
		t.Fatal("NewGNP kept row offsets for K_6")
	}
}

// TestCSRSampleZeroAllocs guards the sampling hot path: steady-state
// neighbor draws on the CSR representation must not allocate.
func TestCSRSampleZeroAllocs(t *testing.T) {
	g, err := NewGNP(500, 0.05, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(12)
	u := 0
	sink := 0
	allocs := testing.AllocsPerRun(1000, func() {
		sink += g.Sample(r, u)
		u++
		if u == g.N() {
			u = 0
		}
	})
	if allocs != 0 {
		t.Fatalf("Sample allocates %.1f per run, want 0", allocs)
	}
	_ = sink
}

// TestGNPIsolatedNodePatchRegression: even at p small enough that most
// nodes draw no Batagelj-Brandes edge, every node must come out with
// degree >= 1 (the patch edge) and Sample must be total — the regression
// the degree-0 panic fix pins down.
func TestGNPIsolatedNodePatchRegression(t *testing.T) {
	g, err := NewGNP(300, 1e-6, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(6)
	for u := 0; u < g.N(); u++ {
		if g.Degree(u) < 1 {
			t.Fatalf("node %d isolated after patching", u)
		}
		if v := g.Sample(r, u); v < 0 || v >= g.N() || v == u {
			t.Fatalf("node %d sampled invalid neighbor %d", u, v)
		}
	}
}
