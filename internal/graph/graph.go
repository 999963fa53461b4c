// Package graph provides the communication topologies the protocols sample
// neighbors from. The paper analyzes the complete graph K_n; the other
// topologies (cycle, torus, Erdős–Rényi) are extension substrates used by
// examples and robustness tests.
//
// The only operation protocols need is drawing a uniformly random neighbor,
// so Graph is deliberately minimal and sampling on the clique is O(1)
// without materializing edges.
package graph

import (
	"fmt"
	"math"

	"plurality/internal/rng"
)

// Graph is a communication topology over nodes 0 … N()-1.
type Graph interface {
	// N returns the number of nodes.
	N() int
	// Degree returns the number of neighbors of node u.
	Degree(u int) int
	// Sample returns a uniformly random neighbor of node u.
	Sample(r *rng.RNG, u int) int
}

// Complete is the complete graph K_n. If WithSelf is true, Sample draws
// uniformly from all n nodes including u itself, matching protocol variants
// that sample "nodes" rather than "neighbors"; the paper's asymptotics are
// identical either way.
type Complete struct {
	Nodes    int
	WithSelf bool
}

// NewComplete returns K_n without self-sampling.
func NewComplete(n int) (Complete, error) {
	if n < 2 {
		return Complete{}, fmt.Errorf("graph: complete graph needs n >= 2, got %d", n)
	}
	return Complete{Nodes: n}, nil
}

// N implements Graph.
func (g Complete) N() int { return g.Nodes }

// Degree implements Graph.
func (g Complete) Degree(int) int {
	if g.WithSelf {
		return g.Nodes
	}
	return g.Nodes - 1
}

// Sample implements Graph.
func (g Complete) Sample(r *rng.RNG, u int) int {
	if g.WithSelf {
		return r.Intn(g.Nodes)
	}
	return r.IntnExcept(g.Nodes, u)
}

// Cycle is the n-cycle: node u's neighbors are u±1 mod n.
type Cycle struct {
	Nodes int
}

// NewCycle returns the cycle on n >= 3 nodes.
func NewCycle(n int) (Cycle, error) {
	if n < 3 {
		return Cycle{}, fmt.Errorf("graph: cycle needs n >= 3, got %d", n)
	}
	return Cycle{Nodes: n}, nil
}

// N implements Graph.
func (g Cycle) N() int { return g.Nodes }

// Degree implements Graph.
func (g Cycle) Degree(int) int { return 2 }

// Sample implements Graph.
func (g Cycle) Sample(r *rng.RNG, u int) int {
	if r.Bool() {
		return (u + 1) % g.Nodes
	}
	return (u - 1 + g.Nodes) % g.Nodes
}

// Torus is the w×h grid with wraparound; each node has 4 neighbors.
type Torus struct {
	W, H int
}

// NewTorus returns the w×h torus; both sides must be at least 3 so the four
// neighbors are distinct.
func NewTorus(w, h int) (Torus, error) {
	if w < 3 || h < 3 {
		return Torus{}, fmt.Errorf("graph: torus needs sides >= 3, got %dx%d", w, h)
	}
	return Torus{W: w, H: h}, nil
}

// N implements Graph.
func (g Torus) N() int { return g.W * g.H }

// Degree implements Graph.
func (g Torus) Degree(int) int { return 4 }

// Sample implements Graph.
func (g Torus) Sample(r *rng.RNG, u int) int {
	x, y := u%g.W, u/g.W
	switch r.Intn(4) {
	case 0:
		x = (x + 1) % g.W
	case 1:
		x = (x - 1 + g.W) % g.W
	case 2:
		y = (y + 1) % g.H
	default:
		y = (y - 1 + g.H) % g.H
	}
	return y*g.W + x
}

// Adjacency is an explicit-edge graph in compressed sparse row (CSR) form,
// used for G(n,p), random regular graphs and any custom topology: all
// neighbor lists live in one contiguous int32 arena, so the sampling hot
// path reads cache-packed arrays instead of chasing a jagged [][]int32.
// The layout follows from the rows, once, at construction: when every row
// has one length d the graph keeps d and no offsets, and node u's row is
// arena[u·d : (u+1)·d]; otherwise n+1 row offsets delimit the rows. Every
// node has at least one neighbor (enforced by the constructors), which is
// what keeps Sample total.
type Adjacency struct {
	arena []int32
	off   []uint32 // row offsets; nil when every row has length d
	d     int      // the common row length when off is nil
	n     int
}

// newCSR returns the graph on n nodes whose rows lie end to end in arena,
// node u's holding deg(u) entries. It is the one place a layout is chosen:
// it reads the row lengths up to the first that differs from row 0's, and
// keeps offsets only when it finds one.
func newCSR(arena []int32, n int, deg func(u int) int) *Adjacency {
	d, u := deg(0), 1
	for u < n && deg(u) == d {
		u++
	}
	if u == n {
		return &Adjacency{arena: arena, d: d, n: n}
	}
	off := make([]uint32, n+1)
	for v := 0; v < n; v++ {
		off[v+1] = off[v] + uint32(deg(v))
	}
	return &Adjacency{arena: arena, off: off, n: n}
}

// NewAdjacency packs the given adjacency lists into CSR form. Every node
// must have at least one neighbor — a degree-0 node would have no defined
// Sample — and all entries must be valid node indices.
func NewAdjacency(adj [][]int32) (*Adjacency, error) {
	n := len(adj)
	if n == 0 {
		return nil, fmt.Errorf("graph: empty adjacency")
	}
	var total uint64
	for u, nbrs := range adj {
		if len(nbrs) == 0 {
			return nil, fmt.Errorf("graph: node %d has no neighbors", u)
		}
		for _, v := range nbrs {
			if v < 0 || int(v) >= n {
				return nil, fmt.Errorf("graph: node %d has out-of-range neighbor %d", u, v)
			}
		}
		total += uint64(len(nbrs))
	}
	if total > math.MaxUint32 {
		return nil, fmt.Errorf("graph: %d half-edges overflow the 32-bit CSR offsets", total)
	}
	g := newCSR(make([]int32, 0, total), n, func(u int) int { return len(adj[u]) })
	for _, nbrs := range adj {
		g.arena = append(g.arena, nbrs...)
	}
	return g, nil
}

// newCSRFromPairs assembles the CSR arrays from a flat list of undirected
// edges (pairs[2i], pairs[2i+1]) via one counting pass and one fill pass.
// Every node must end up with degree >= 1.
func newCSRFromPairs(n int, pairs []int32) (*Adjacency, error) {
	if uint64(len(pairs)) > math.MaxUint32 {
		return nil, fmt.Errorf("graph: %d half-edges overflow the 32-bit CSR offsets", len(pairs))
	}
	cur := make([]uint32, n)
	for _, v := range pairs {
		cur[v]++
	}
	for u, k := range cur {
		if k == 0 {
			return nil, fmt.Errorf("graph: node %d has no neighbors", u)
		}
	}
	g := newCSR(make([]int32, len(pairs)), n, func(u int) int { return int(cur[u]) })
	// The degrees are spent, so cur becomes each row's fill cursor.
	for u := range cur {
		cur[u] = uint32(g.start(u))
	}
	for i := 0; i < len(pairs); i += 2 {
		a, b := pairs[i], pairs[i+1]
		g.arena[cur[a]] = b
		cur[a]++
		g.arena[cur[b]] = a
		cur[b]++
	}
	return g, nil
}

// NewGNP samples an Erdős–Rényi graph G(n, p), patching isolated nodes by
// attaching them to a random other node so the graph is usable by sampling
// protocols (Sample requires degree >= 1). The patch distorts G(n,p) only
// in the regime where isolated nodes are common — expected degree (n-1)p
// below 1 — which the sweep compiler rejects; above it the patch is a
// vanishing perturbation. The construction is deterministic given r.
func NewGNP(n int, p float64, r *rng.RNG) (*Adjacency, error) {
	if n < 2 {
		return nil, fmt.Errorf("graph: G(n,p) needs n >= 2, got %d", n)
	}
	if p <= 0 || p > 1 {
		return nil, fmt.Errorf("graph: G(n,p) needs p in (0,1], got %v", p)
	}
	deg := make([]int32, n)
	var pairs []int32
	// Batagelj-Brandes geometric skipping over the n(n-1)/2 candidate
	// edges (v, w) with 0 <= w < v < n.
	g := geometricSkip{p: p}
	v, w := 1, -1
	for v < n {
		w += 1 + g.next(r)
		for v < n && w >= v {
			w -= v
			v++
		}
		if v < n {
			pairs = append(pairs, int32(v), int32(w))
			deg[v]++
			deg[w]++
		}
	}
	for u := 0; u < n; u++ {
		if deg[u] == 0 {
			x := r.IntnExcept(n, u)
			pairs = append(pairs, int32(u), int32(x))
			deg[u]++
			deg[x]++
		}
	}
	return newCSRFromPairs(n, pairs)
}

type geometricSkip struct{ p float64 }

func (g geometricSkip) next(r *rng.RNG) int {
	if g.p >= 1 {
		return 0
	}
	u := 1 - r.Float64()
	s := int(math.Log(u) / math.Log(1-g.p))
	if s < 0 {
		s = 0
	}
	return s
}

// N implements Graph.
func (g *Adjacency) N() int { return g.n }

// Degree implements Graph.
func (g *Adjacency) Degree(u int) int {
	if g.off == nil {
		return g.d
	}
	return int(g.off[u+1] - g.off[u])
}

// Sample implements Graph. It is allocation-free and draws exactly as the
// jagged representation did (same RNG consumption), so trajectories are
// bit-identical across the CSR conversion and across both layouts.
func (g *Adjacency) Sample(r *rng.RNG, u int) int {
	if g.off == nil {
		return int(g.arena[u*g.d+r.Intn(g.d)])
	}
	o := g.off[u]
	d := int(g.off[u+1] - o)
	return int(g.arena[o+uint32(r.Intn(d))])
}

// Neighbors returns node u's adjacency row (a view into the CSR arena, not
// a copy; callers must not mutate it).
func (g *Adjacency) Neighbors(u int) []int32 {
	i := g.start(u)
	return g.arena[i : i+g.Degree(u)]
}

// Regular returns the arena and the common row length d of a graph that
// keeps no row offsets, so that node u's row is arena[u·d : (u+1)·d], for
// a batch loop to index directly; d is 0 when the rows' lengths differ.
func (g *Adjacency) Regular() (arena []int32, d int) {
	if g.off != nil {
		return nil, 0
	}
	return g.arena, g.d
}

// start returns where node u's row begins in the arena.
func (g *Adjacency) start(u int) int {
	if g.off == nil {
		return u * g.d
	}
	return int(g.off[u])
}
