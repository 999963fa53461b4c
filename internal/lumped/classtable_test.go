package lumped

import (
	"testing"

	"plurality/internal/graph"
	"plurality/internal/rng"
)

// TestClassTableMatchesLinearScan checks the guided class lookup against a
// linear scan over the class counts for every node index, on partitions
// with an empty first, middle or last class, one dominant class, and up to
// 40 classes.
func TestClassTableMatchesLinearScan(t *testing.T) {
	partitions := [][]int64{
		{1},
		{2, 1},
		{0, 5, 3},
		{4, 0, 0, 7},
		{3, 9, 0},
		{0, 1, 0, 2, 0},
		{4000, 1, 1, 1, 2},
		{1, 1, 3000, 2, 1},
		{1, 2, 3, 4, 2500},
	}
	r := rng.New(11)
	for D := 2; D <= 40; D += 2 {
		counts := make([]int64, D)
		for a := range counts {
			if r.Intn(5) > 0 {
				counts[a] = int64(1 + r.Intn(200))
			}
		}
		counts[r.Intn(D)] += int64(r.Intn(3000))
		partitions = append(partitions, counts)
	}
	var ct classTable
	for _, counts := range partitions {
		classes := make([]graph.Class, len(counts))
		var n int64
		for a, c := range counts {
			classes[a] = graph.Class{Degree: a + 1, Count: c}
			n += c
		}
		if n == 0 {
			continue
		}
		ct.build(classes)
		if len(ct.guide) > 4*len(counts) {
			t.Errorf("counts=%v: %d guide entries for %d classes", counts, len(ct.guide), len(counts))
		}
		for x := int64(0); x < n; x++ {
			wantA, wantOff := 0, x
			for wantOff >= counts[wantA] {
				wantOff -= counts[wantA]
				wantA++
			}
			if a, off := ct.find(x); a != wantA || off != wantOff {
				t.Fatalf("counts=%v: find(%d) = (%d, %d), linear scan (%d, %d)", counts, x, a, off, wantA, wantOff)
			}
		}
	}
}
