package plurality_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"

	"plurality"
	"plurality/internal/occupancy"
	"plurality/internal/protocols"
	"plurality/internal/rng"
	"plurality/internal/sched"
)

// goldenReport is every exported outcome field a Report carried when this
// table was captured; floats are compared bit for bit.
type goldenReport struct {
	Kind          plurality.Kind
	Protocol      string
	Converged     bool
	Winner        plurality.Color
	ConsensusTime float64
	Time          float64
	Rounds        int
	Ticks         int64
	Undecided     int64
	Churns        int64
	Corruptions   int64
	Biased        int64
	Messages      int64
}

func goldenOf(r plurality.Report) goldenReport {
	return goldenReport{r.Kind, r.Protocol, r.Converged, r.Winner, r.ConsensusTime, r.Time,
		r.Rounds, r.Ticks, r.Undecided, r.Churns, r.Corruptions, r.Biased, r.Messages}
}

func sameGolden(a, b goldenReport) bool {
	fa, fb := a, b
	fa.ConsensusTime, fa.Time, fb.ConsensusTime, fb.Time = 0, 0, 0, 0
	return fa == fb &&
		math.Float64bits(a.ConsensusTime) == math.Float64bits(b.ConsensusTime) &&
		math.Float64bits(a.Time) == math.Float64bits(b.Time)
}

// goldenTable was captured from the Job API before the engine planner
// existed (commit 2455bb8), on a 256-node start (leap: 10¹² nodes) in the
// default Sequential model. The j-majority:5 rows were captured later, at
// commit 8470b6b, before its kernel stopped re-evaluating its weights. The
// rows of the "-k256" and "-k300" paths, whose colours do not all fit in
// one byte, were captured at commit 585c228, while every population still
// stored four bytes per node. The "per-node-gnp" rows, per-node runs on an
// irregular CSR graph, were captured at commit d10cc6e, while every CSR
// graph still kept its row offsets.
var goldenTable = []struct {
	path, spec string
	seed       uint64
	want       goldenReport
}{
	{"per-node", "two-choices", 1, goldenReport{Kind: plurality.KindDynamic, Protocol: "two-choices", Converged: true, Winner: 0, ConsensusTime: 10.4765625, Time: 10.4765625, Rounds: 0, Ticks: 2683, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"per-node", "two-choices", 2, goldenReport{Kind: plurality.KindDynamic, Protocol: "two-choices", Converged: true, Winner: 0, ConsensusTime: 7.4765625, Time: 7.4765625, Rounds: 0, Ticks: 1915, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"per-node", "two-choices", 3, goldenReport{Kind: plurality.KindDynamic, Protocol: "two-choices", Converged: true, Winner: 0, ConsensusTime: 8.92578125, Time: 8.92578125, Rounds: 0, Ticks: 2286, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"per-node", "usd", 1, goldenReport{Kind: plurality.KindDynamic, Protocol: "usd", Converged: true, Winner: 0, ConsensusTime: 13.375, Time: 13.375, Rounds: 0, Ticks: 3425, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"per-node", "usd", 2, goldenReport{Kind: plurality.KindDynamic, Protocol: "usd", Converged: true, Winner: 0, ConsensusTime: 10.73046875, Time: 10.73046875, Rounds: 0, Ticks: 2748, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"per-node", "usd", 3, goldenReport{Kind: plurality.KindDynamic, Protocol: "usd", Converged: true, Winner: 0, ConsensusTime: 12.39453125, Time: 12.39453125, Rounds: 0, Ticks: 3174, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"per-node", "3-majority", 1, goldenReport{Kind: plurality.KindDynamic, Protocol: "3-majority", Converged: true, Winner: 0, ConsensusTime: 6.6796875, Time: 6.6796875, Rounds: 0, Ticks: 1711, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"per-node", "3-majority", 2, goldenReport{Kind: plurality.KindDynamic, Protocol: "3-majority", Converged: true, Winner: 0, ConsensusTime: 7.4765625, Time: 7.4765625, Rounds: 0, Ticks: 1915, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"per-node", "3-majority", 3, goldenReport{Kind: plurality.KindDynamic, Protocol: "3-majority", Converged: true, Winner: 0, ConsensusTime: 8.96875, Time: 8.96875, Rounds: 0, Ticks: 2297, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"per-node-gnp", "two-choices", 1, goldenReport{Kind: plurality.KindDynamic, Protocol: "two-choices", Converged: true, Winner: 0, ConsensusTime: 15.44921875, Time: 15.44921875, Rounds: 0, Ticks: 3956, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"per-node-gnp", "two-choices", 2, goldenReport{Kind: plurality.KindDynamic, Protocol: "two-choices", Converged: true, Winner: 0, ConsensusTime: 9.1953125, Time: 9.1953125, Rounds: 0, Ticks: 2355, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"per-node-gnp", "two-choices", 3, goldenReport{Kind: plurality.KindDynamic, Protocol: "two-choices", Converged: true, Winner: 0, ConsensusTime: 10.21484375, Time: 10.21484375, Rounds: 0, Ticks: 2616, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"per-node-gnp", "usd", 1, goldenReport{Kind: plurality.KindDynamic, Protocol: "usd", Converged: true, Winner: 0, ConsensusTime: 19.03515625, Time: 19.03515625, Rounds: 0, Ticks: 4874, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"per-node-gnp", "usd", 2, goldenReport{Kind: plurality.KindDynamic, Protocol: "usd", Converged: true, Winner: 0, ConsensusTime: 16.80859375, Time: 16.80859375, Rounds: 0, Ticks: 4304, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"per-node-gnp", "usd", 3, goldenReport{Kind: plurality.KindDynamic, Protocol: "usd", Converged: true, Winner: 0, ConsensusTime: 17.7734375, Time: 17.7734375, Rounds: 0, Ticks: 4551, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"per-node-gnp", "3-majority", 1, goldenReport{Kind: plurality.KindDynamic, Protocol: "3-majority", Converged: true, Winner: 0, ConsensusTime: 11.62890625, Time: 11.62890625, Rounds: 0, Ticks: 2978, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"per-node-gnp", "3-majority", 2, goldenReport{Kind: plurality.KindDynamic, Protocol: "3-majority", Converged: true, Winner: 0, ConsensusTime: 7.4765625, Time: 7.4765625, Rounds: 0, Ticks: 1915, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"per-node-gnp", "3-majority", 3, goldenReport{Kind: plurality.KindDynamic, Protocol: "3-majority", Converged: true, Winner: 0, ConsensusTime: 9.5859375, Time: 9.5859375, Rounds: 0, Ticks: 2455, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"auto-clique", "two-choices", 1, goldenReport{Kind: plurality.KindDynamic, Protocol: "two-choices", Converged: true, Winner: 0, ConsensusTime: 8.359375, Time: 8.359375, Rounds: 0, Ticks: 2141, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"auto-clique", "two-choices", 2, goldenReport{Kind: plurality.KindDynamic, Protocol: "two-choices", Converged: true, Winner: 0, ConsensusTime: 10, Time: 10, Rounds: 0, Ticks: 2561, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"auto-clique", "two-choices", 3, goldenReport{Kind: plurality.KindDynamic, Protocol: "two-choices", Converged: true, Winner: 0, ConsensusTime: 12.765625, Time: 12.765625, Rounds: 0, Ticks: 3269, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"auto-clique", "usd", 1, goldenReport{Kind: plurality.KindDynamic, Protocol: "usd", Converged: true, Winner: 0, ConsensusTime: 14.453125, Time: 14.453125, Rounds: 0, Ticks: 3701, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"auto-clique", "usd", 2, goldenReport{Kind: plurality.KindDynamic, Protocol: "usd", Converged: true, Winner: 0, ConsensusTime: 17.0078125, Time: 17.0078125, Rounds: 0, Ticks: 4355, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"auto-clique", "usd", 3, goldenReport{Kind: plurality.KindDynamic, Protocol: "usd", Converged: true, Winner: 0, ConsensusTime: 13.59375, Time: 13.59375, Rounds: 0, Ticks: 3481, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"auto-clique", "3-majority", 1, goldenReport{Kind: plurality.KindDynamic, Protocol: "3-majority", Converged: true, Winner: 0, ConsensusTime: 8.1328125, Time: 8.1328125, Rounds: 0, Ticks: 2083, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"auto-clique", "3-majority", 2, goldenReport{Kind: plurality.KindDynamic, Protocol: "3-majority", Converged: true, Winner: 0, ConsensusTime: 9.91796875, Time: 9.91796875, Rounds: 0, Ticks: 2540, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"auto-clique", "3-majority", 3, goldenReport{Kind: plurality.KindDynamic, Protocol: "3-majority", Converged: true, Winner: 0, ConsensusTime: 9.32421875, Time: 9.32421875, Rounds: 0, Ticks: 2388, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"auto-annealed", "two-choices", 1, goldenReport{Kind: plurality.KindDynamic, Protocol: "two-choices", Converged: true, Winner: 0, ConsensusTime: 8.359375, Time: 8.359375, Rounds: 0, Ticks: 2141, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"auto-annealed", "two-choices", 2, goldenReport{Kind: plurality.KindDynamic, Protocol: "two-choices", Converged: true, Winner: 0, ConsensusTime: 10, Time: 10, Rounds: 0, Ticks: 2561, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"auto-annealed", "two-choices", 3, goldenReport{Kind: plurality.KindDynamic, Protocol: "two-choices", Converged: true, Winner: 0, ConsensusTime: 12.765625, Time: 12.765625, Rounds: 0, Ticks: 3269, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"auto-annealed", "usd", 1, goldenReport{Kind: plurality.KindDynamic, Protocol: "usd", Converged: true, Winner: 0, ConsensusTime: 14.453125, Time: 14.453125, Rounds: 0, Ticks: 3701, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"auto-annealed", "usd", 2, goldenReport{Kind: plurality.KindDynamic, Protocol: "usd", Converged: true, Winner: 0, ConsensusTime: 17.0078125, Time: 17.0078125, Rounds: 0, Ticks: 4355, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"auto-annealed", "usd", 3, goldenReport{Kind: plurality.KindDynamic, Protocol: "usd", Converged: true, Winner: 0, ConsensusTime: 13.59375, Time: 13.59375, Rounds: 0, Ticks: 3481, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"auto-annealed", "3-majority", 1, goldenReport{Kind: plurality.KindDynamic, Protocol: "3-majority", Converged: true, Winner: 0, ConsensusTime: 8.1328125, Time: 8.1328125, Rounds: 0, Ticks: 2083, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"auto-annealed", "3-majority", 2, goldenReport{Kind: plurality.KindDynamic, Protocol: "3-majority", Converged: true, Winner: 0, ConsensusTime: 9.91796875, Time: 9.91796875, Rounds: 0, Ticks: 2540, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"auto-annealed", "3-majority", 3, goldenReport{Kind: plurality.KindDynamic, Protocol: "3-majority", Converged: true, Winner: 0, ConsensusTime: 9.32421875, Time: 9.32421875, Rounds: 0, Ticks: 2388, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"auto-annealed-gnp", "two-choices", 1, goldenReport{Kind: plurality.KindDynamic, Protocol: "two-choices", Converged: true, Winner: 2, ConsensusTime: 13.9921875, Time: 13.9921875, Rounds: 0, Ticks: 3583, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"auto-annealed-gnp", "two-choices", 2, goldenReport{Kind: plurality.KindDynamic, Protocol: "two-choices", Converged: true, Winner: 2, ConsensusTime: 10.7265625, Time: 10.7265625, Rounds: 0, Ticks: 2747, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"auto-annealed-gnp", "two-choices", 3, goldenReport{Kind: plurality.KindDynamic, Protocol: "two-choices", Converged: true, Winner: 0, ConsensusTime: 14.25390625, Time: 14.25390625, Rounds: 0, Ticks: 3650, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"auto-annealed-gnp", "usd", 1, goldenReport{Kind: plurality.KindDynamic, Protocol: "usd", Converged: true, Winner: 0, ConsensusTime: 20.8046875, Time: 20.8046875, Rounds: 0, Ticks: 5327, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"auto-annealed-gnp", "usd", 2, goldenReport{Kind: plurality.KindDynamic, Protocol: "usd", Converged: true, Winner: 0, ConsensusTime: 16.0234375, Time: 16.0234375, Rounds: 0, Ticks: 4103, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"auto-annealed-gnp", "usd", 3, goldenReport{Kind: plurality.KindDynamic, Protocol: "usd", Converged: true, Winner: 0, ConsensusTime: 24.19140625, Time: 24.19140625, Rounds: 0, Ticks: 6194, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"auto-annealed-gnp", "3-majority", 1, goldenReport{Kind: plurality.KindDynamic, Protocol: "3-majority", Converged: true, Winner: 2, ConsensusTime: 11.4140625, Time: 11.4140625, Rounds: 0, Ticks: 2923, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"auto-annealed-gnp", "3-majority", 2, goldenReport{Kind: plurality.KindDynamic, Protocol: "3-majority", Converged: true, Winner: 2, ConsensusTime: 11.59765625, Time: 11.59765625, Rounds: 0, Ticks: 2970, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"auto-annealed-gnp", "3-majority", 3, goldenReport{Kind: plurality.KindDynamic, Protocol: "3-majority", Converged: true, Winner: 0, ConsensusTime: 9.72265625, Time: 9.72265625, Rounds: 0, Ticks: 2490, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"auto-latency", "two-choices", 1, goldenReport{Kind: plurality.KindDynamic, Protocol: "two-choices", Converged: true, Winner: 0, ConsensusTime: 18.640625, Time: 18.640625, Rounds: 0, Ticks: 4773, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"auto-latency", "two-choices", 2, goldenReport{Kind: plurality.KindDynamic, Protocol: "two-choices", Converged: true, Winner: 0, ConsensusTime: 19.609375, Time: 19.609375, Rounds: 0, Ticks: 5021, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"auto-latency", "two-choices", 3, goldenReport{Kind: plurality.KindDynamic, Protocol: "two-choices", Converged: true, Winner: 0, ConsensusTime: 19.93359375, Time: 19.93359375, Rounds: 0, Ticks: 5104, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"auto-latency", "usd", 1, goldenReport{Kind: plurality.KindDynamic, Protocol: "usd", Converged: true, Winner: 0, ConsensusTime: 30.03125, Time: 30.03125, Rounds: 0, Ticks: 7689, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"auto-latency", "usd", 2, goldenReport{Kind: plurality.KindDynamic, Protocol: "usd", Converged: true, Winner: 0, ConsensusTime: 33.09375, Time: 33.09375, Rounds: 0, Ticks: 8473, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"auto-latency", "usd", 3, goldenReport{Kind: plurality.KindDynamic, Protocol: "usd", Converged: true, Winner: 0, ConsensusTime: 38.6484375, Time: 38.6484375, Rounds: 0, Ticks: 9895, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"auto-latency", "3-majority", 1, goldenReport{Kind: plurality.KindDynamic, Protocol: "3-majority", Converged: true, Winner: 0, ConsensusTime: 21.859375, Time: 21.859375, Rounds: 0, Ticks: 5597, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"auto-latency", "3-majority", 2, goldenReport{Kind: plurality.KindDynamic, Protocol: "3-majority", Converged: true, Winner: 0, ConsensusTime: 20.69921875, Time: 20.69921875, Rounds: 0, Ticks: 5300, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"auto-latency", "3-majority", 3, goldenReport{Kind: plurality.KindDynamic, Protocol: "3-majority", Converged: true, Winner: 0, ConsensusTime: 20.16796875, Time: 20.16796875, Rounds: 0, Ticks: 5164, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"occupancy-counts", "two-choices", 1, goldenReport{Kind: plurality.KindDynamic, Protocol: "two-choices", Converged: true, Winner: 0, ConsensusTime: 8.359375, Time: 8.359375, Rounds: 0, Ticks: 2141, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"occupancy-counts", "two-choices", 2, goldenReport{Kind: plurality.KindDynamic, Protocol: "two-choices", Converged: true, Winner: 0, ConsensusTime: 10, Time: 10, Rounds: 0, Ticks: 2561, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"occupancy-counts", "two-choices", 3, goldenReport{Kind: plurality.KindDynamic, Protocol: "two-choices", Converged: true, Winner: 0, ConsensusTime: 12.765625, Time: 12.765625, Rounds: 0, Ticks: 3269, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"occupancy-counts", "usd", 1, goldenReport{Kind: plurality.KindDynamic, Protocol: "usd", Converged: true, Winner: 0, ConsensusTime: 14.453125, Time: 14.453125, Rounds: 0, Ticks: 3701, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"occupancy-counts", "usd", 2, goldenReport{Kind: plurality.KindDynamic, Protocol: "usd", Converged: true, Winner: 0, ConsensusTime: 17.0078125, Time: 17.0078125, Rounds: 0, Ticks: 4355, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"occupancy-counts", "usd", 3, goldenReport{Kind: plurality.KindDynamic, Protocol: "usd", Converged: true, Winner: 0, ConsensusTime: 13.59375, Time: 13.59375, Rounds: 0, Ticks: 3481, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"occupancy-counts", "3-majority", 1, goldenReport{Kind: plurality.KindDynamic, Protocol: "3-majority", Converged: true, Winner: 0, ConsensusTime: 8.1328125, Time: 8.1328125, Rounds: 0, Ticks: 2083, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"occupancy-counts", "3-majority", 2, goldenReport{Kind: plurality.KindDynamic, Protocol: "3-majority", Converged: true, Winner: 0, ConsensusTime: 9.91796875, Time: 9.91796875, Rounds: 0, Ticks: 2540, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"occupancy-counts", "3-majority", 3, goldenReport{Kind: plurality.KindDynamic, Protocol: "3-majority", Converged: true, Winner: 0, ConsensusTime: 9.32421875, Time: 9.32421875, Rounds: 0, Ticks: 2388, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"occupancy-counts", "j-majority:5", 1, goldenReport{Kind: plurality.KindDynamic, Protocol: "j-majority:5", Converged: true, Winner: 0, ConsensusTime: 6.75390625, Time: 6.75390625, Rounds: 0, Ticks: 1730, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"occupancy-counts", "j-majority:5", 2, goldenReport{Kind: plurality.KindDynamic, Protocol: "j-majority:5", Converged: true, Winner: 0, ConsensusTime: 6.79296875, Time: 6.79296875, Rounds: 0, Ticks: 1740, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"occupancy-counts", "j-majority:5", 3, goldenReport{Kind: plurality.KindDynamic, Protocol: "j-majority:5", Converged: true, Winner: 0, ConsensusTime: 8.796875, Time: 8.796875, Rounds: 0, Ticks: 2253, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"leap-counts", "two-choices", 1, goldenReport{Kind: plurality.KindDynamic, Protocol: "two-choices", Converged: true, Winner: 0, ConsensusTime: 29.64989962785, Time: 29.64989962785, Rounds: 0, Ticks: 29649899627850, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"leap-counts", "two-choices", 2, goldenReport{Kind: plurality.KindDynamic, Protocol: "two-choices", Converged: true, Winner: 0, ConsensusTime: 29.095324326146, Time: 29.095324326146, Rounds: 0, Ticks: 29095324326146, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"leap-counts", "two-choices", 3, goldenReport{Kind: plurality.KindDynamic, Protocol: "two-choices", Converged: true, Winner: 0, ConsensusTime: 29.699308667438, Time: 29.699308667438, Rounds: 0, Ticks: 29699308667438, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"leap-counts", "usd", 1, goldenReport{Kind: plurality.KindDynamic, Protocol: "usd", Converged: true, Winner: 0, ConsensusTime: 35.068374674448, Time: 35.068374674448, Rounds: 0, Ticks: 35068374674448, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"leap-counts", "usd", 2, goldenReport{Kind: plurality.KindDynamic, Protocol: "usd", Converged: true, Winner: 0, ConsensusTime: 34.032131735547, Time: 34.032131735547, Rounds: 0, Ticks: 34032131735547, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"leap-counts", "usd", 3, goldenReport{Kind: plurality.KindDynamic, Protocol: "usd", Converged: true, Winner: 0, ConsensusTime: 34.353524596539, Time: 34.353524596539, Rounds: 0, Ticks: 34353524596539, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"leap-counts", "3-majority", 1, goldenReport{Kind: plurality.KindDynamic, Protocol: "3-majority", Converged: true, Winner: 0, ConsensusTime: 30.244325330278, Time: 30.244325330278, Rounds: 0, Ticks: 30244325330278, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"leap-counts", "3-majority", 2, goldenReport{Kind: plurality.KindDynamic, Protocol: "3-majority", Converged: true, Winner: 0, ConsensusTime: 29.112975940936, Time: 29.112975940936, Rounds: 0, Ticks: 29112975940936, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"leap-counts", "3-majority", 3, goldenReport{Kind: plurality.KindDynamic, Protocol: "3-majority", Converged: true, Winner: 0, ConsensusTime: 28.741567411463, Time: 28.741567411463, Rounds: 0, Ticks: 28741567411463, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"leap-counts", "j-majority:5", 1, goldenReport{Kind: plurality.KindDynamic, Protocol: "j-majority:5", Converged: true, Winner: 0, ConsensusTime: 28.164862952467, Time: 28.164862952467, Rounds: 0, Ticks: 28164862952467, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"leap-counts", "j-majority:5", 2, goldenReport{Kind: plurality.KindDynamic, Protocol: "j-majority:5", Converged: true, Winner: 0, ConsensusTime: 27.238110315649, Time: 27.238110315649, Rounds: 0, Ticks: 27238110315649, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"leap-counts", "j-majority:5", 3, goldenReport{Kind: plurality.KindDynamic, Protocol: "j-majority:5", Converged: true, Winner: 0, ConsensusTime: 26.675844140917, Time: 26.675844140917, Rounds: 0, Ticks: 26675844140917, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"sync", "two-choices", 1, goldenReport{Kind: plurality.KindSyncDynamic, Protocol: "two-choices", Converged: true, Winner: 0, ConsensusTime: 0, Time: 0, Rounds: 8, Ticks: 0, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"sync", "two-choices", 2, goldenReport{Kind: plurality.KindSyncDynamic, Protocol: "two-choices", Converged: true, Winner: 0, ConsensusTime: 0, Time: 0, Rounds: 6, Ticks: 0, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"sync", "two-choices", 3, goldenReport{Kind: plurality.KindSyncDynamic, Protocol: "two-choices", Converged: true, Winner: 0, ConsensusTime: 0, Time: 0, Rounds: 7, Ticks: 0, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"sync", "usd", 1, goldenReport{Kind: plurality.KindSyncDynamic, Protocol: "usd", Converged: true, Winner: 0, ConsensusTime: 0, Time: 0, Rounds: 12, Ticks: 0, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"sync", "usd", 2, goldenReport{Kind: plurality.KindSyncDynamic, Protocol: "usd", Converged: true, Winner: 0, ConsensusTime: 0, Time: 0, Rounds: 12, Ticks: 0, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"sync", "usd", 3, goldenReport{Kind: plurality.KindSyncDynamic, Protocol: "usd", Converged: true, Winner: 0, ConsensusTime: 0, Time: 0, Rounds: 10, Ticks: 0, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"sync", "3-majority", 1, goldenReport{Kind: plurality.KindSyncDynamic, Protocol: "3-majority", Converged: true, Winner: 0, ConsensusTime: 0, Time: 0, Rounds: 9, Ticks: 0, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"sync", "3-majority", 2, goldenReport{Kind: plurality.KindSyncDynamic, Protocol: "3-majority", Converged: true, Winner: 0, ConsensusTime: 0, Time: 0, Rounds: 8, Ticks: 0, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"sync", "3-majority", 3, goldenReport{Kind: plurality.KindSyncDynamic, Protocol: "3-majority", Converged: true, Winner: 0, ConsensusTime: 0, Time: 0, Rounds: 6, Ticks: 0, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"auto-corrupt", "two-choices", 1, goldenReport{Kind: plurality.KindDynamic, Protocol: "two-choices", Converged: true, Winner: 0, ConsensusTime: 7.40625, Time: 7.40625, Rounds: 0, Ticks: 1897, Undecided: 0, Churns: 0, Corruptions: 4, Biased: 0, Messages: 0}},
	{"auto-corrupt", "two-choices", 2, goldenReport{Kind: plurality.KindDynamic, Protocol: "two-choices", Converged: true, Winner: 0, ConsensusTime: 11.65625, Time: 11.65625, Rounds: 0, Ticks: 2985, Undecided: 0, Churns: 0, Corruptions: 6, Biased: 0, Messages: 0}},
	{"auto-corrupt", "two-choices", 3, goldenReport{Kind: plurality.KindDynamic, Protocol: "two-choices", Converged: true, Winner: 0, ConsensusTime: 8.55078125, Time: 8.55078125, Rounds: 0, Ticks: 2190, Undecided: 0, Churns: 0, Corruptions: 4, Biased: 0, Messages: 0}},
	{"auto-corrupt", "usd", 1, goldenReport{Kind: plurality.KindDynamic, Protocol: "usd", Converged: true, Winner: 0, ConsensusTime: 12.00390625, Time: 12.00390625, Rounds: 0, Ticks: 3074, Undecided: 0, Churns: 0, Corruptions: 6, Biased: 0, Messages: 0}},
	{"auto-corrupt", "usd", 2, goldenReport{Kind: plurality.KindDynamic, Protocol: "usd", Converged: true, Winner: 0, ConsensusTime: 14.78125, Time: 14.78125, Rounds: 0, Ticks: 3785, Undecided: 0, Churns: 0, Corruptions: 6, Biased: 0, Messages: 0}},
	{"auto-corrupt", "usd", 3, goldenReport{Kind: plurality.KindDynamic, Protocol: "usd", Converged: true, Winner: 0, ConsensusTime: 13.296875, Time: 13.296875, Rounds: 0, Ticks: 3405, Undecided: 0, Churns: 0, Corruptions: 6, Biased: 0, Messages: 0}},
	{"auto-corrupt", "3-majority", 1, goldenReport{Kind: plurality.KindDynamic, Protocol: "3-majority", Converged: true, Winner: 0, ConsensusTime: 10.7265625, Time: 10.7265625, Rounds: 0, Ticks: 2747, Undecided: 0, Churns: 0, Corruptions: 6, Biased: 0, Messages: 0}},
	{"auto-corrupt", "3-majority", 2, goldenReport{Kind: plurality.KindDynamic, Protocol: "3-majority", Converged: true, Winner: 0, ConsensusTime: 10.53515625, Time: 10.53515625, Rounds: 0, Ticks: 2698, Undecided: 0, Churns: 0, Corruptions: 6, Biased: 0, Messages: 0}},
	{"auto-corrupt", "3-majority", 3, goldenReport{Kind: plurality.KindDynamic, Protocol: "3-majority", Converged: true, Winner: 0, ConsensusTime: 8.5390625, Time: 8.5390625, Rounds: 0, Ticks: 2187, Undecided: 0, Churns: 0, Corruptions: 4, Biased: 0, Messages: 0}},
	{"node", "two-choices", 1, goldenReport{Kind: plurality.KindDynamic, Protocol: "two-choices", Converged: true, Winner: 0, ConsensusTime: 8.271731143592739, Time: 74.3422873429698, Rounds: 0, Ticks: 14995, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 29990}},
	{"node", "two-choices", 2, goldenReport{Kind: plurality.KindDynamic, Protocol: "two-choices", Converged: true, Winner: 0, ConsensusTime: 9.134213982647434, Time: 74.8406487781187, Rounds: 0, Ticks: 15078, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 30156}},
	{"node", "two-choices", 3, goldenReport{Kind: plurality.KindDynamic, Protocol: "two-choices", Converged: true, Winner: 0, ConsensusTime: 9.247597927505883, Time: 72.87257973966936, Rounds: 0, Ticks: 15039, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 30078}},
	{"node", "usd", 1, goldenReport{Kind: plurality.KindDynamic, Protocol: "usd", Converged: true, Winner: 0, ConsensusTime: 18.225292600126508, Time: 74.70173218902303, Rounds: 0, Ticks: 15310, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 15310}},
	{"node", "usd", 2, goldenReport{Kind: plurality.KindDynamic, Protocol: "usd", Converged: true, Winner: 0, ConsensusTime: 13.385804503625513, Time: 78.55004695659257, Rounds: 0, Ticks: 15027, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 15027}},
	{"node", "usd", 3, goldenReport{Kind: plurality.KindDynamic, Protocol: "usd", Converged: true, Winner: 0, ConsensusTime: 12.454795475030465, Time: 72.50817992564366, Rounds: 0, Ticks: 14481, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 14481}},
	{"node", "3-majority", 1, goldenReport{Kind: plurality.KindDynamic, Protocol: "3-majority", Converged: true, Winner: 0, ConsensusTime: 7.183027282239413, Time: 73.39792125957915, Rounds: 0, Ticks: 15149, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 45447}},
	{"node", "3-majority", 2, goldenReport{Kind: plurality.KindDynamic, Protocol: "3-majority", Converged: true, Winner: 0, ConsensusTime: 8.884070366536161, Time: 76.48035754473217, Rounds: 0, Ticks: 15517, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 46551}},
	{"node", "3-majority", 3, goldenReport{Kind: plurality.KindDynamic, Protocol: "3-majority", Converged: true, Winner: 0, ConsensusTime: 7.6988553912027395, Time: 72.16216520562519, Rounds: 0, Ticks: 14866, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 44598}},
	{"core", "core", 1, goldenReport{Kind: plurality.KindCore, Protocol: "core", Converged: true, Winner: 0, ConsensusTime: 1021.3203125, Time: 1021.3203125, Rounds: 0, Ticks: 261459, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"onebit", "onebit", 1, goldenReport{Kind: plurality.KindOneExtraBit, Protocol: "onebit", Converged: true, Winner: 0, ConsensusTime: 0, Time: 0, Rounds: 31, Ticks: 0, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"per-node-k256", "voter", 1, goldenReport{Kind: plurality.KindDynamic, Protocol: "voter", Converged: true, Winner: 110, ConsensusTime: 2135.6563333333334, Time: 2135.6563333333334, Rounds: 0, Ticks: 6406970, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"per-node-k256", "two-choices", 1, goldenReport{Kind: plurality.KindDynamic, Protocol: "two-choices", Converged: true, Winner: 0, ConsensusTime: 27.313, Time: 27.313, Rounds: 0, Ticks: 81940, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"per-node-k256", "usd", 1, goldenReport{Kind: plurality.KindDynamic, Protocol: "usd", Converged: true, Winner: 0, ConsensusTime: 53.876666666666665, Time: 53.876666666666665, Rounds: 0, Ticks: 161631, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"csr-k256", "voter", 1, goldenReport{Kind: plurality.KindDynamic, Protocol: "voter", Converged: true, Winner: 0, ConsensusTime: 3669.2946666666667, Time: 3669.2946666666667, Rounds: 0, Ticks: 11007885, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"csr-k256", "two-choices", 1, goldenReport{Kind: plurality.KindDynamic, Protocol: "two-choices", Converged: true, Winner: 0, ConsensusTime: 61.289, Time: 61.289, Rounds: 0, Ticks: 183868, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"csr-k256", "usd", 1, goldenReport{Kind: plurality.KindDynamic, Protocol: "usd", Converged: true, Winner: 0, ConsensusTime: 59.608, Time: 59.608, Rounds: 0, Ticks: 178825, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"sync-k256", "voter", 1, goldenReport{Kind: plurality.KindSyncDynamic, Protocol: "voter", Converged: true, Winner: 246, ConsensusTime: 0, Time: 0, Rounds: 2787, Ticks: 0, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"sync-k256", "two-choices", 1, goldenReport{Kind: plurality.KindSyncDynamic, Protocol: "two-choices", Converged: true, Winner: 0, ConsensusTime: 0, Time: 0, Rounds: 24, Ticks: 0, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"sync-k256", "usd", 1, goldenReport{Kind: plurality.KindSyncDynamic, Protocol: "usd", Converged: true, Winner: 0, ConsensusTime: 0, Time: 0, Rounds: 20, Ticks: 0, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"per-node-k300", "voter", 1, goldenReport{Kind: plurality.KindDynamic, Protocol: "voter", Converged: true, Winner: 139, ConsensusTime: 2135.6563333333334, Time: 2135.6563333333334, Rounds: 0, Ticks: 6406970, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"per-node-k300", "two-choices", 1, goldenReport{Kind: plurality.KindDynamic, Protocol: "two-choices", Converged: true, Winner: 58, ConsensusTime: 299.62466666666666, Time: 299.62466666666666, Rounds: 0, Ticks: 898875, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"per-node-k300", "usd", 1, goldenReport{Kind: plurality.KindDynamic, Protocol: "usd", Converged: true, Winner: 267, ConsensusTime: 70.49733333333333, Time: 70.49733333333333, Rounds: 0, Ticks: 211493, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"csr-k300", "voter", 1, goldenReport{Kind: plurality.KindDynamic, Protocol: "voter", Converged: true, Winner: 4, ConsensusTime: 3669.2946666666667, Time: 3669.2946666666667, Rounds: 0, Ticks: 11007885, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"csr-k300", "two-choices", 1, goldenReport{Kind: plurality.KindDynamic, Protocol: "two-choices", Converged: true, Winner: 25, ConsensusTime: 206.75433333333334, Time: 206.75433333333334, Rounds: 0, Ticks: 620264, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"csr-k300", "usd", 1, goldenReport{Kind: plurality.KindDynamic, Protocol: "usd", Converged: true, Winner: 150, ConsensusTime: 120.03366666666666, Time: 120.03366666666666, Rounds: 0, Ticks: 360102, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"sync-k300", "voter", 1, goldenReport{Kind: plurality.KindSyncDynamic, Protocol: "voter", Converged: true, Winner: 289, ConsensusTime: 0, Time: 0, Rounds: 2787, Ticks: 0, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"sync-k300", "two-choices", 1, goldenReport{Kind: plurality.KindSyncDynamic, Protocol: "two-choices", Converged: true, Winner: 24, ConsensusTime: 0, Time: 0, Rounds: 248, Ticks: 0, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
	{"sync-k300", "usd", 1, goldenReport{Kind: plurality.KindSyncDynamic, Protocol: "usd", Converged: true, Winner: 172, ConsensusTime: 0, Time: 0, Rounds: 32, Ticks: 0, Undecided: 0, Churns: 0, Corruptions: 0, Biased: 0, Messages: 0}},
}

// goldenCounts is the three-colour start every path except leap and the
// wide-colour paths runs from.
var goldenCounts = []int64{120, 70, 66}

// goldenPath is one way a Job can be executed: the options that select it
// and the start it runs from.
type goldenPath struct {
	name   string
	counts []int64
	opts   func(t *testing.T) []plurality.Option
}

func goldenPaths() []goldenPath {
	none := func(*testing.T) []plurality.Option { return nil }
	paths := []goldenPath{
		{"per-node", goldenCounts, func(*testing.T) []plurality.Option {
			return []plurality.Option{plurality.WithEngine(plurality.EnginePerNode)}
		}},
		{"per-node-gnp", goldenCounts, func(t *testing.T) []plurality.Option {
			g, err := plurality.RandomGraph(256, 0.05, 9)
			if err != nil {
				t.Fatal(err)
			}
			return []plurality.Option{plurality.WithEngine(plurality.EnginePerNode), plurality.WithGraph(g)}
		}},
		{"auto-clique", goldenCounts, none},
		{"auto-annealed", goldenCounts, func(t *testing.T) []plurality.Option {
			g, err := plurality.AnnealedRegularGraph(256, 4)
			if err != nil {
				t.Fatal(err)
			}
			return []plurality.Option{plurality.WithGraph(g)}
		}},
		{"auto-annealed-gnp", goldenCounts, func(t *testing.T) []plurality.Option {
			g, err := plurality.RandomGraph(256, 0.05, 9)
			if err != nil {
				t.Fatal(err)
			}
			if g, err = plurality.AnnealedGraph(g); err != nil {
				t.Fatal(err)
			}
			return []plurality.Option{plurality.WithGraph(g)}
		}},
		{"auto-latency", goldenCounts, func(*testing.T) []plurality.Option {
			return []plurality.Option{plurality.WithEdgeLatency(plurality.ExpEdgeLatency(0.1))}
		}},
		{"occupancy-counts", goldenCounts, func(*testing.T) []plurality.Option {
			return []plurality.Option{plurality.WithEngine(plurality.EngineOccupancy)}
		}},
		{"leap-counts", []int64{6e11, 3e11, 1e11}, func(*testing.T) []plurality.Option {
			return []plurality.Option{plurality.WithEngine(plurality.EngineLeap)}
		}},
		{"sync", goldenCounts, func(*testing.T) []plurality.Option {
			return []plurality.Option{plurality.WithModel(plurality.Synchronous)}
		}},
		{"auto-corrupt", goldenCounts, func(t *testing.T) []plurality.Option {
			adv, err := plurality.ParseAdversary("corrupt")
			if err != nil {
				t.Fatal(err)
			}
			adv.Budget = 2
			return []plurality.Option{plurality.WithAdversary(adv)}
		}},
		{"node", goldenCounts, func(*testing.T) []plurality.Option {
			return []plurality.Option{plurality.WithTransport(plurality.NewChanTransport())}
		}},
	}
	for _, k := range []int{256, 300} {
		counts := wideCounts(k)
		paths = append(paths,
			goldenPath{fmt.Sprintf("per-node-k%d", k), counts, func(*testing.T) []plurality.Option {
				return []plurality.Option{plurality.WithEngine(plurality.EnginePerNode)}
			}},
			goldenPath{fmt.Sprintf("csr-k%d", k), counts, func(t *testing.T) []plurality.Option {
				g, err := plurality.RandomRegularGraph(wideN, 6, 5)
				if err != nil {
					t.Fatal(err)
				}
				return []plurality.Option{plurality.WithEngine(plurality.EnginePerNode), plurality.WithGraph(g)}
			}},
			goldenPath{fmt.Sprintf("sync-k%d", k), counts, func(*testing.T) []plurality.Option {
				return []plurality.Option{plurality.WithModel(plurality.Synchronous)}
			}},
		)
	}
	return paths
}

// wideN is the size of the wide-colour starts.
const wideN = 3000

// wideCounts is Uniform(wideN, k) with colour 0 three nodes further ahead,
// taken one each from colours 1–3: a start whose colours do not all fit in
// one byte once k > 255.
func wideCounts(k int) []int64 {
	counts, err := plurality.Uniform(wideN, k)
	if err != nil {
		panic(err)
	}
	for c := 1; c <= 3; c++ {
		counts[c]--
		counts[0]++
	}
	return counts
}

// TestJobGoldenAcrossEngines pins the full Report of fixed-seed jobs along
// every execution path the Job API dispatches to: the dynamics engines
// (forced per-node, occupancy and lumped picked automatically, the per-node
// fallback under edge latency, the counts and leap histogram paths, the
// adversarial tick mode), the synchronous engine, the node runtime, one
// run each of core and OneExtraBit, per-node runs on a G(n,p) graph, and
// per-node (clique and CSR) and synchronous runs from starts with more
// colours than one byte holds. Which path runs a job is decided by the
// engine planner; moving that decision must not change a single bit of any
// of these runs.
func TestJobGoldenAcrossEngines(t *testing.T) {
	paths := goldenPaths()
	byName := make(map[string]goldenPath, len(paths))
	for _, p := range paths {
		byName[p.name] = p
	}
	for _, tc := range goldenTable {
		name := fmt.Sprintf("%s/%s/seed=%d", tc.path, tc.spec, tc.seed)
		t.Run(name, func(t *testing.T) {
			counts, opts := goldenCounts, []plurality.Option(nil)
			if p, ok := byName[tc.path]; ok {
				counts, opts = p.counts, p.opts(t)
			}
			job, err := plurality.NewJob(tc.spec, counts, append(opts, plurality.WithSeed(tc.seed))...)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := job.Run(context.Background())
			if err != nil && !errors.Is(err, plurality.ErrTimeLimit) {
				t.Fatal(err)
			}
			if got := goldenOf(rep); !sameGolden(got, tc.want) {
				t.Fatalf("report drifted from the captured run:\n got  %+v\n want %+v", got, tc.want)
			}
		})
	}
}

// twoChoicesRun is the goldenReport of a converged Two-Choices run that
// ended at the given tick and parallel time.
func twoChoicesRun(ticks int64, time float64) goldenReport {
	return goldenReport{Kind: plurality.KindDynamic, Protocol: "two-choices", Converged: true,
		ConsensusTime: time, Time: time, Ticks: ticks}
}

// scaleGraphStream is the stream of a trial's seed that draws its
// random-regular graph.
const scaleGraphStream = 1 << 10

// scaleGrid is Two-Choices from Biased(n, 4, 1) in the Poisson model on
// every engine family that reaches consensus at n = 10⁵ in well under a
// second, up to 10⁷ on the collapsed ones.
var scaleGrid = []struct {
	engine, topology string
	n                int
	// bytesPerNode is trial 0's allocation per node when the cell was
	// last recorded (the per-node cells after the colour vector moved to
	// one byte per node, regular8 again after regular CSR graphs dropped
	// their row offsets); the run may allocate at most 1.5× that plus one
	// byte per node.
	bytesPerNode float64
	want         []goldenReport
}{
	{"per-node", "complete", 100_000, 3.2535, []goldenReport{
		twoChoicesRun(1469642, 14.677732663008793),
		twoChoicesRun(1559889, 15.620651334042932),
		twoChoicesRun(1481519, 14.820303904118743),
	}},
	{"per-node", "regular8", 100_000, 105.42, []goldenReport{
		twoChoicesRun(2312531, 23.124117019767805),
		twoChoicesRun(2160548, 21.613740445797742),
	}},
	{"occupancy", "complete", 100_000, 0.00464, []goldenReport{
		twoChoicesRun(1415401, 14.152969611053873),
		twoChoicesRun(1435966, 14.355187473723399),
		twoChoicesRun(1660663, 16.594763563243372),
	}},
	{"occupancy", "complete", 10_000_000, 0.0000464, []goldenReport{
		twoChoicesRun(215449199, 21.545152784068716),
		twoChoicesRun(202201416, 20.220855926559327),
	}},
	{"lumped", "annealed8", 100_000, 0.00696, []goldenReport{
		twoChoicesRun(1450538, 14.49471805188535),
		twoChoicesRun(1433419, 14.335406865494633),
	}},
	{"lumped", "annealed8", 10_000_000, 0.0000696, []goldenReport{
		twoChoicesRun(183476815, 18.34494320502308),
		twoChoicesRun(194095430, 19.40956855971581),
	}},
}

// scaleOptions builds a scale cell's engine and topology options, leaving
// the engine to EngineAuto when auto is set; the graph is built here,
// inside the allocation window.
func scaleOptions(engine, topology string, n int, seed uint64, auto bool) ([]plurality.Option, error) {
	var opts []plurality.Option
	if !auto {
		e := plurality.EngineOccupancy
		if engine == "per-node" {
			e = plurality.EnginePerNode
		}
		opts = append(opts, plurality.WithEngine(e))
	}
	var g plurality.Graph
	var err error
	switch topology {
	case "regular8":
		g, err = plurality.RandomRegularGraph(n, 8, rng.At(seed, scaleGraphStream).Uint64())
	case "annealed8":
		g, err = plurality.AnnealedRegularGraph(n, 8)
	}
	if g != nil {
		opts = append(opts, plurality.WithGraph(g))
	}
	return opts, err
}

// TestScaleGridGolden pins every trial of the scale grid bit for bit, the
// engine that ran it, and what trial 0 allocates per node: the O(n)
// colour vector and CSR arena on the per-node path, next to nothing on the
// collapsed engines. The collapsed cells run a second time under
// EngineAuto ("auto/…"), which must pick the same engine and, needing no
// population, allocate as little. It must not run in parallel with other
// tests, whose allocations would land in the window.
func TestScaleGridGolden(t *testing.T) {
	if raceEnabled {
		t.Skip("the root package's race run is already close to go test's default 10-minute timeout")
	}
	for _, auto := range []bool{false, true} {
		for i, c := range scaleGrid {
			if auto && c.engine == "per-node" {
				continue
			}
			name := fmt.Sprintf("%s/%s/n=%d", c.engine, c.topology, c.n)
			if auto {
				name = "auto/" + name
			}
			runScaleCell(t, name, i, auto)
		}
	}
}

// runScaleCell runs every trial of scale-grid cell i as a subtest.
func runScaleCell(t *testing.T, name string, i int, auto bool) {
	c := scaleGrid[i]
	t.Run(name, func(t *testing.T) {
		counts, err := plurality.Biased(c.n, 4, 1)
		if err != nil {
			t.Fatal(err)
		}
		base := rng.At(1, i).Uint64()
		for trial, want := range c.want {
			seed := plurality.TrialSeed(base, trial)
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			opts, err := scaleOptions(c.engine, c.topology, c.n, seed, auto)
			if err != nil {
				t.Fatal(err)
			}
			job, err := plurality.NewJob("two-choices", counts,
				append(opts, plurality.WithSeed(seed), plurality.WithModel(plurality.Poisson))...)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := job.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			if rep.Engine != c.engine {
				t.Fatalf("trial %d ran on engine %q, want %q", trial, rep.Engine, c.engine)
			}
			if got := goldenOf(rep); !sameGolden(got, want) {
				t.Fatalf("trial %d drifted from the captured run:\n got  %+v\n want %+v", trial, got, want)
			}
			if trial > 0 {
				continue
			}
			perNode := float64(after.TotalAlloc-before.TotalAlloc) / float64(c.n)
			if bound := 1.5*c.bytesPerNode + 1; perNode > bound {
				t.Fatalf("trial 0 allocated %.4f B/node, bound %.4f", perNode, bound)
			}
			t.Logf("trial 0 allocated %.4f B/node", perNode)
		}
	})
}

// leapTrial is the outcome of one hybrid-engine run.
type leapTrial struct {
	done  bool
	ticks int64
	time  float64
}

// leapGrid runs the hybrid tau-leap/mean-field engine at n = 10⁹ from
// Biased(n, 4, 1). Trial 0's regime switches pin where the ODE, leap and
// exact regimes hand over.
var leapGrid = []struct {
	protocol string
	want     []leapTrial
	switches []occupancy.RegimeSwitch // Time is not compared
}{
	{"two-choices",
		[]leapTrial{{true, 24123992210, 24.12399221}, {true, 22131679400, 22.1316794}},
		[]occupancy.RegimeSwitch{
			{Ticks: 0, To: occupancy.RegimeODE},
			{Ticks: 3410315031, To: occupancy.RegimeLeap},
			{Ticks: 15773243041, To: occupancy.RegimeExact},
		}},
	{"usd",
		[]leapTrial{{true, 35350123711, 35.350123711}, {true, 30156533688, 30.156533688}},
		[]occupancy.RegimeSwitch{
			{Ticks: 0, To: occupancy.RegimeODE},
			{Ticks: 1250000, To: occupancy.RegimeLeap},
			{Ticks: 169348666, To: occupancy.RegimeODE},
			{Ticks: 2431562550, To: occupancy.RegimeLeap},
			{Ticks: 18848704207, To: occupancy.RegimeExact},
		}},
}

// TestLeapGridGolden pins the hybrid engine's runs at n = 10⁹, called
// directly for the regime trace the public Report does not carry.
func TestLeapGridGolden(t *testing.T) {
	const n = 1_000_000_000
	counts, err := plurality.Biased(n, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range leapGrid {
		_, rule, err := protocols.Lookup(c.protocol)
		if err != nil {
			t.Fatal(err)
		}
		base := rng.At(1, i).Uint64()
		for trial, want := range c.want {
			seed := plurality.TrialSeed(base, trial)
			s, err := sched.NewPoisson(n, 1, rng.At(seed, 0))
			if err != nil {
				t.Fatal(err)
			}
			res, err := occupancy.RunLeap(append([]int64(nil), counts...), rule,
				occupancy.Config{Scheduler: s, Rand: rng.At(seed, 1), MaxTime: 1e6}, occupancy.LeapConfig{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Done != want.done || res.Ticks != want.ticks || math.Float64bits(res.Time) != math.Float64bits(want.time) {
				t.Errorf("%s trial %d: done=%v ticks=%d time=%v, want %+v", c.protocol, trial, res.Done, res.Ticks, res.Time, want)
			}
			if trial > 0 {
				continue
			}
			same := len(res.Switches) == len(c.switches)
			for j := 0; same && j < len(c.switches); j++ {
				same = res.Switches[j].Ticks == c.switches[j].Ticks && res.Switches[j].To == c.switches[j].To
			}
			if !same {
				t.Errorf("%s trial 0: regime switches %+v, want %+v", c.protocol, res.Switches, c.switches)
			}
		}
	}
}
