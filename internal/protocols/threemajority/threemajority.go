// Package threemajority implements the 3-Majority dynamic: on activation a
// node samples three nodes uniformly at random with replacement and adopts
// the majority color among the three samples; if all three differ it adopts
// the first sample.
//
// 3-Majority is the per-step-cheaper cousin of Two-Choices (it always moves,
// never stalls) studied in the plurality-consensus literature the paper
// builds on (e.g. Becchetti et al., Ghaffari & Parter); it is included as a
// comparison baseline for the experiment harness.
package threemajority

import (
	"plurality/internal/occupancy"
	"plurality/internal/population"
	"plurality/internal/protocols/dynamics"
	"plurality/internal/rng"
)

// Rule is the 3-Majority update rule.
type Rule struct{}

var (
	_ dynamics.Rule      = Rule{}
	_ occupancy.Kerneled = Rule{}
)

// OccupancyKernel implements occupancy.Kerneled: the exact count-level
// transition law that lets the count-collapsed engine leap over no-op
// activations on the clique.
func (Rule) OccupancyKernel() occupancy.Kernel { return &occupancy.ThreeMajorityKernel{} }

// Name implements dynamics.Rule.
func (Rule) Name() string { return "3-majority" }

// SampleCount implements dynamics.Rule.
func (Rule) SampleCount() int { return 3 }

// Next implements dynamics.Rule: adopt the majority among the three
// samples; with three distinct samples, adopt the first.
func (Rule) Next(_ *rng.RNG, _ population.Color, sampled []population.Color) population.Color {
	if sampled[0] == sampled[1] || sampled[0] == sampled[2] {
		return sampled[0]
	}
	if sampled[1] == sampled[2] {
		return sampled[1]
	}
	return sampled[0]
}
