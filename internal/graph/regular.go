package graph

import (
	"fmt"
	"math"
	"slices"

	"plurality/internal/rng"
)

// maxRepairPasses bounds the pairing-repair loop in NewRandomRegular. The
// defect count shrinks geometrically per pass (each re-pairing is a fresh
// uniform matching over a pool that is mostly clean stubs), so real runs
// finish in a handful of passes. Near the complete graph they would not,
// which is why NewRandomRegular repairs only d <= (n-1)/2 and draws a
// denser graph as a complement; the cap only guards against a stalled run.
const maxRepairPasses = 200

// NewRandomRegular samples a simple random d-regular graph on n nodes via
// the configuration model: the n·d half-edge stubs are paired uniformly at
// random, then pairings containing self-loops or multi-edges are repaired
// by re-matching the offending pairs together with an equal number of
// randomly chosen clean pairs until the graph is simple. (Plain rejection
// of non-simple pairings needs about e^((d²-1)/4) attempts — already one in
// ~42 at d = 4 and hopeless by d = 8 — while repair touches only the defect
// set; mixing clean pairs into each re-match is what guarantees progress,
// since e.g. two parallel (a,b) pairs can never untangle among themselves.)
//
// Near the complete graph a re-match almost never comes out simple, so a
// dense graph, d > (n-1)/2, is drawn as the complement of a random
// (n-1-d)-regular graph from the same generator, K_n when d = n-1, with
// every row ascending. Complementing is a bijection between the simple
// d-regular and (n-1-d)-regular graphs on n nodes, so the dense graph is
// as uniform as the sparse one.
//
// The O(n·d) work runs once: the repair scans every node's incidences
// once, and after each re-match it rescans only the nodes whose rows the
// re-match changed. Its incidence table keeps every row in pair order,
// which is the CSR row order, so the arena is the table's neighbour column
// and node u's row starts at u·d; the graph keeps no row offsets. The
// construction is deterministic given r.
func NewRandomRegular(n, d int, r *rng.RNG) (*Adjacency, error) {
	if n < 2 {
		return nil, fmt.Errorf("graph: random regular graph needs n >= 2, got %d", n)
	}
	if d < 1 || d >= n {
		return nil, fmt.Errorf("graph: random regular graph needs 1 <= d < n, got d = %d with n = %d", d, n)
	}
	if n%2 != 0 && d%2 != 0 {
		return nil, fmt.Errorf("graph: random %d-regular graph on %d nodes needs n·d even", d, n)
	}
	if int64(n)*int64(d) > math.MaxUint32 {
		return nil, fmt.Errorf("graph: %d-regular graph on %d nodes overflows the repair's 32-bit pair indices", d, n)
	}
	rows := pairedRows
	if 2*d > n-1 {
		rows = complementRows
	}
	arena, err := rows(n, d, r)
	if err != nil {
		return nil, err
	}
	return newCSR(arena, n, func(int) int { return d }), nil
}

// pairedRows draws the configuration model's d-regular graph on n nodes,
// for 0 <= d, and returns its rows end to end, node u's at [u·d, (u+1)·d).
func pairedRows(n, d int, r *rng.RNG) ([]int32, error) {
	stubs := make([]int32, n*d)
	for u := 0; u < n; u++ {
		row := stubs[u*d : (u+1)*d]
		for i := range row {
			row[i] = int32(u)
		}
	}
	rng.Shuffle(r, stubs)
	inc, err := repairPairing(stubs, n, d, r)
	if err != nil {
		return nil, err
	}
	// The pairing is spent, so its array takes the neighbour column.
	for i, w := range inc {
		stubs[i] = int32(w)
	}
	return stubs, nil
}

// complementRows returns the rows of the complement of pairedRows' random
// (n-1-d)-regular graph on n nodes, each ascending.
func complementRows(n, d int, r *rng.RNG) ([]int32, error) {
	c := n - 1 - d
	sparse, err := pairedRows(n, c, r)
	if err != nil {
		return nil, err
	}
	arena := make([]int32, 0, n*d)
	excluded := make([]bool, n)
	for u := 0; u < n; u++ {
		row := sparse[u*c : (u+1)*c]
		excluded[u] = true
		for _, v := range row {
			excluded[v] = true
		}
		for v, x := range excluded {
			if !x {
				arena = append(arena, int32(v))
			}
		}
		excluded[u] = false
		for _, v := range row {
			excluded[v] = false
		}
	}
	return arena, nil
}

// repairPairing rewires the stub pairing (stubs[2i], stubs[2i+1]) in place
// until it encodes a simple graph, and returns its incidence table: node
// u's d incidences at [u*d, (u+1)*d), each one word holding the pair index
// in its high 32 bits and the neighbour in its low 32, in pair order.
//
// A pass pools the defective pairs — self-loops and all but the first of
// each duplicate-edge group, found node by node in ascending order and,
// within a row, in neighbour order — with an equal number of random clean
// pairs, and re-matches the pooled stubs with a fresh shuffle. The first
// pass scans every row. A re-match changes only the rows of the pooled
// stubs' nodes: their pooled incidences are dropped, the re-matched ones
// added and pair order restored, and the next pass rescans those rows
// alone, in ascending node order. Every other row was clean when last
// scanned and is unchanged, so each pass pools what a scan of the whole
// table would, and every draw is the same.
func repairPairing(stubs []int32, n, d int, r *rng.RNG) ([]uint64, error) {
	m := len(stubs) / 2
	rp := repair{
		d:      d,
		inc:    make([]uint64, len(stubs)),
		fill:   make([]int32, n),
		inPool: make([]bool, m),
	}
	for i := 0; i < m; i++ {
		rp.add(int32(i), stubs[2*i], stubs[2*i+1])
	}
	var touched, loose []int32
	for pass := 0; pass < maxRepairPasses; pass++ {
		if pass == 0 {
			for u := 0; u < n; u++ {
				rp.scan(int32(u))
			}
		} else {
			for _, u := range touched {
				rp.scan(u)
			}
		}
		if len(rp.pool) == 0 {
			return rp.inc, nil
		}
		// Mix in as many random clean pairs as defective ones. The defect
		// fraction is O(d/n), so rejection sampling against the pool flag
		// terminates immediately in practice.
		for extra := len(rp.pool); extra > 0 && len(rp.pool) < m; {
			p := int32(r.Intn(m))
			if !rp.inPool[p] {
				rp.inPool[p] = true
				rp.pool = append(rp.pool, p)
				extra--
			}
		}
		touched, loose = touched[:0], loose[:0]
		for _, p := range rp.pool {
			a, b := stubs[2*p], stubs[2*p+1]
			loose = append(loose, a, b)
			touched = rp.drop(a, touched)
			touched = rp.drop(b, touched)
		}
		rng.Shuffle(r, loose)
		for j, p := range rp.pool {
			a, b := loose[2*j], loose[2*j+1]
			stubs[2*p], stubs[2*p+1] = a, b
			rp.add(p, a, b)
			rp.inPool[p] = false
		}
		rp.pool = rp.pool[:0]
		slices.Sort(touched)
		for _, u := range touched {
			slices.Sort(rp.row(u))
		}
	}
	return nil, fmt.Errorf("graph: random %d-regular pairing on %d nodes failed to simplify after %d repair passes", d, n, maxRepairPasses)
}

// repair is repairPairing's state between passes.
type repair struct {
	d      int
	inc    []uint64 // the incidence table repairPairing returns
	fill   []int32  // how many incidences each row holds; d between passes
	inPool []bool
	pool   []int32  // pair indices queued for re-matching
	keys   []uint64 // scan's scratch: a row in neighbour order
}

// row returns node u's incidences.
func (rp *repair) row(u int32) []uint64 {
	i := int(u) * rp.d
	return rp.inc[i : i+rp.d]
}

// add appends pair p, joining a and b, to both endpoints' rows.
func (rp *repair) add(p, a, b int32) {
	w := uint64(p) << 32
	rp.inc[int(a)*rp.d+int(rp.fill[a])] = w | uint64(uint32(b))
	rp.fill[a]++
	rp.inc[int(b)*rp.d+int(rp.fill[b])] = w | uint64(uint32(a))
	rp.fill[b]++
}

// drop removes every pooled incidence from node u's row, keeping the rest
// in order, and appends u to touched. A row already dropped this pass is
// short of d, and is left alone.
func (rp *repair) drop(u int32, touched []int32) []int32 {
	if int(rp.fill[u]) < rp.d {
		return touched
	}
	row := rp.row(u)
	kept := row[:0]
	for _, w := range row {
		if !rp.inPool[w>>32] {
			kept = append(kept, w)
		}
	}
	rp.fill[u] = int32(len(kept))
	return append(touched, u)
}

// scan pools the defective pairs of node u's row: a self-loop, and every
// pair but the first to a neighbour the row repeats, visiting the row in
// neighbour order with ties in pair order. A row with neither, by far the
// common case, is checked without sorting.
func (rp *repair) scan(u int32) {
	row := rp.row(u)
	if simple(row, u) {
		return
	}
	keys := rp.keys[:0]
	for _, w := range row {
		keys = append(keys, w<<32|w>>32)
	}
	slices.Sort(keys)
	for i, k := range keys {
		v, p := int32(k>>32), int32(k)
		bad := v == u || (i > 0 && v == int32(keys[i-1]>>32))
		if bad && !rp.inPool[p] {
			rp.inPool[p] = true
			rp.pool = append(rp.pool, p)
		}
	}
	rp.keys = keys
}

// simple reports whether a row of node u's holds neither u nor a repeated
// neighbour.
func simple(row []uint64, u int32) bool {
	for i, w := range row {
		v := int32(w)
		if v == u {
			return false
		}
		for _, x := range row[:i] {
			if int32(x) == v {
				return false
			}
		}
	}
	return true
}
