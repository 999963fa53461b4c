package graph

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"plurality/internal/rng"
)

// Symmetry classifies a topology by the exchangeability an engine can
// exploit: on the clique a run collapses to colour counts, on an annealed
// (Classed) topology to degree-class × colour counts, and on a quenched
// topology — fixed wiring — not at all.
type Symmetry uint8

const (
	SymClique Symmetry = iota
	SymAnnealed
	SymQuenched
)

// SymmetryOf classifies g; nil stands for the implicit complete graph.
func SymmetryOf(g Graph) Symmetry {
	switch g.(type) {
	case nil, Complete:
		return SymClique
	case Classed:
		return SymAnnealed
	}
	return SymQuenched
}

// Spec is a topology in the "name[:param]" grammar the command line and the
// experiment harness share: complete, cycle, torus (square n), gnp:<p>,
// random-regular:<d>, annealed:<d> and annealed-gnp:<p>.
type Spec struct {
	Name  string
	Param float64
}

// ParseSpec splits "name[:param]"; Validate checks the result against n.
func ParseSpec(s string) (Spec, error) {
	name, param, has := strings.Cut(s, ":")
	sp := Spec{Name: name}
	if has {
		v, err := strconv.ParseFloat(param, 64)
		if err != nil {
			return Spec{}, fmt.Errorf("topology %q: bad parameter %q", s, param)
		}
		sp.Param = v
	}
	return sp, nil
}

// Validate checks that the topology exists on n nodes and measures what its
// name says.
func (s Spec) Validate(n int) error {
	switch s.Name {
	case "complete", "cycle":
	case "torus":
		if side := int(math.Round(math.Sqrt(float64(n)))); side*side != n {
			return fmt.Errorf("torus topology needs a square n, got %d", n)
		}
	case "gnp", "annealed-gnp":
		if !(s.Param > 0 && s.Param <= 1) {
			return fmt.Errorf("%s topology needs p in (0, 1], got %v", s.Name, s.Param)
		}
		// Below (n-1)p = 1 NewGNP's isolated-node patch edges dominate.
		if float64(n-1)*s.Param < 1 {
			return fmt.Errorf("%s topology with (n-1)p = %.3f < 1 is mostly isolated-node patch edges, not G(n,p); raise p or n",
				s.Name, float64(n-1)*s.Param)
		}
	case "random-regular", "annealed":
		d := int(s.Param)
		if float64(d) != s.Param || d < 1 {
			return fmt.Errorf("%s topology needs an integer degree d >= 1, got %v", s.Name, s.Param)
		}
		if d >= n {
			return fmt.Errorf("%s topology needs d < n, got d=%d n=%d", s.Name, d, n)
		}
		if s.Name == "random-regular" && n*d%2 != 0 {
			return fmt.Errorf("random-regular topology needs n·d even, got n=%d d=%d", n, d)
		}
	default:
		return fmt.Errorf("unknown topology %q", s.Name)
	}
	return nil
}

// Class returns the symmetry the built topology will report.
func (s Spec) Class() Symmetry {
	if c, ok := map[string]Symmetry{"complete": SymClique, "annealed": SymAnnealed, "annealed-gnp": SymAnnealed}[s.Name]; ok {
		return c
	}
	return SymQuenched
}

// Build constructs the topology on n nodes; the randomized families sample
// their wiring from seed.
func (s Spec) Build(n int, seed uint64) (Graph, error) {
	switch s.Name {
	case "complete":
		return NewComplete(n)
	case "cycle":
		return NewCycle(n)
	case "torus":
		side := int(math.Round(math.Sqrt(float64(n))))
		return NewTorus(side, side)
	case "gnp":
		return NewGNP(n, s.Param, rng.New(seed))
	case "random-regular":
		return NewRandomRegular(n, int(s.Param), rng.New(seed))
	case "annealed":
		// The annealed regular model has no quenched wiring to sample.
		return NewAnnealedRegular(n, int(s.Param))
	case "annealed-gnp":
		g, err := NewGNP(n, s.Param, rng.New(seed))
		if err != nil {
			return nil, err
		}
		return AnnealedOf(g)
	default:
		return nil, fmt.Errorf("unknown topology %q", s.Name)
	}
}
