package graph

import (
	"fmt"
	"testing"
)

// TestSpecBuildsEveryAdmittedTopology: on small n, every topology the
// grammar names, with every parameter Spec.Validate accepts, builds a
// graph of n nodes whose degrees are what the name says, and whose
// symmetry is the one Spec.Class predicts. That includes every admissible
// d of random-regular:<d> and annealed:<d>, up to the complete graph.
func TestSpecBuildsEveryAdmittedTopology(t *testing.T) {
	for _, n := range []int{8, 9, 10, 16, 30} {
		// G(n,p) needs (n-1)p >= 1 and p <= 1.
		ps := []float64{0, 0.5 / float64(n-1), 2 / float64(n-1), 0.5, 1, 1.5}
		params := map[string][]float64{
			"complete": {0}, "cycle": {0}, "torus": {0}, "gnp": ps, "annealed-gnp": ps,
		}
		for d := 0; d <= n; d++ {
			params["random-regular"] = append(params["random-regular"], float64(d))
			params["annealed"] = append(params["annealed"], float64(d))
		}
		params["random-regular"] = append(params["random-regular"], 2.5)
		params["annealed"] = append(params["annealed"], 2.5)
		admitted := map[string]int{}
		for name, ps := range params {
			for _, p := range ps {
				s, err := ParseSpec(fmt.Sprintf("%s:%v", name, p))
				if err != nil {
					t.Fatal(err)
				}
				if s.Validate(n) != nil {
					continue
				}
				admitted[name]++
				for seed := uint64(1); seed <= 3; seed++ {
					g, err := s.Build(n, seed)
					if err != nil {
						t.Fatalf("n=%d %s:%v seed %d: Validate admits it, Build fails: %v", n, name, p, seed, err)
					}
					checkBuilt(t, fmt.Sprintf("n=%d %s:%v seed %d", n, name, p, seed), s, g, n)
				}
			}
		}
		// Validate admits d = 1 … n-1, random-regular only with n·d even,
		// and a torus only on a square n.
		want := map[string]int{
			"complete": 1, "cycle": 1, "torus": 0, "gnp": 3, "annealed-gnp": 3,
			"random-regular": n - 1, "annealed": n - 1,
		}
		if n%2 != 0 {
			want["random-regular"] = (n - 1) / 2
		}
		if n == 9 || n == 16 {
			want["torus"] = 1
		}
		for name, c := range want {
			if admitted[name] != c {
				t.Errorf("n=%d: Validate admits %d parameters of %s, want %d", n, admitted[name], name, c)
			}
		}
	}
}

// checkBuilt checks a graph Build returned for s against what s names.
func checkBuilt(t *testing.T, name string, s Spec, g Graph, n int) {
	t.Helper()
	if g.N() != n {
		t.Fatalf("%s: %d nodes, want %d", name, g.N(), n)
	}
	if got := SymmetryOf(g); got != s.Class() {
		t.Fatalf("%s: symmetry %d, Class says %d", name, got, s.Class())
	}
	want := map[string]int{"complete": n - 1, "cycle": 2, "torus": 4, "random-regular": int(s.Param), "annealed": int(s.Param)}
	if s.Param == 1 {
		want["gnp"], want["annealed-gnp"] = n-1, n-1
	}
	for u := 0; u < n; u++ {
		deg := g.Degree(u)
		if d, named := want[s.Name]; named && deg != d {
			t.Fatalf("%s: node %d has degree %d, want %d", name, u, deg, d)
		}
		if deg < 1 || deg > n-1 {
			t.Fatalf("%s: node %d has degree %d", name, u, deg)
		}
	}
	if a, ok := g.(*Adjacency); ok {
		for u := 0; u < n; u++ {
			seen := map[int32]bool{int32(u): true}
			for _, v := range a.Neighbors(u) {
				if seen[v] {
					t.Fatalf("%s: node %d's row repeats %d or holds itself", name, u, v)
				}
				seen[v] = true
			}
		}
	}
}

// TestSpecRejects: names the grammar does not hold and parameters that do
// not parse fail, in Validate and in Build.
func TestSpecRejects(t *testing.T) {
	if _, err := ParseSpec("gnp:x"); err == nil {
		t.Error("gnp:x parsed")
	}
	s, err := ParseSpec("hypercube")
	if err != nil {
		t.Fatal(err)
	}
	if s.Validate(16) == nil {
		t.Error("hypercube validated")
	}
	if _, err := s.Build(16, 1); err == nil {
		t.Error("hypercube built")
	}
	if s.Class() != SymQuenched {
		t.Errorf("an unknown name's class is %d, want quenched", s.Class())
	}
}
