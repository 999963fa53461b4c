package core_test

import (
	"context"
	"testing"

	"plurality"
	. "plurality/internal/core"
	"plurality/internal/graph"
	"plurality/internal/population"
	"plurality/internal/rng"
	"plurality/internal/sched"
)

// TestRunGoldenBitIdentical pins the exact Result of fixed-seed runs across
// every execution path (sequential/poisson/heap schedulers, churn, crashes,
// desync, gadget ablation, endgame-only, run-to-halt, §4 delays, edge
// latencies). The values were captured from the pre-packing engine (commit
// cc07cd6, int64 state and interface-dispatched sampling); the int32/flags
// cache packing and the devirtualized clique sampling must not change a
// single bit of any of them, because they alter only the memory layout, not
// the sequence of RNG draws.
func TestRunGoldenBitIdentical(t *testing.T) {
	cases := []struct {
		name string
		n, k int
		eps  float64
		opts []plurality.Option
		want Result
	}{
		{
			"seq-default", 2000, 4, 1,
			[]plurality.Option{plurality.WithSeed(42)},
			Result{Done: true, Winner: 0, ConsensusTime: 1170.576, FirstHaltTime: 0, EndgameSafe: true, Time: 1170.576, Ticks: 2341153, Jumps: 8082, Churns: 0, MaxJumpAdjustment: 99},
		},
		{
			"poisson", 4000, 5, 0.8,
			[]plurality.Option{plurality.WithSeed(7), plurality.WithModel(plurality.Poisson)},
			Result{Done: true, Winner: 0, ConsensusTime: 1246.911054837703, FirstHaltTime: 0, EndgameSafe: true, Time: 1246.911054837703, Ticks: 4988997, Jumps: 16133, Churns: 0, MaxJumpAdjustment: 85},
		},
		{
			// No public model spells the event-heap reference, so this
			// row calls Run directly, on the streams of seed 9.
			"heap-poisson", 1000, 3, 1, nil,
			Result{Done: true, Winner: 0, ConsensusTime: 1122.9101548491255, FirstHaltTime: 0, EndgameSafe: true, Time: 1122.9101548491255, Ticks: 1122708, Jumps: 4046, Churns: 0, MaxJumpAdjustment: 66},
		},
		{
			"churn", 1500, 4, 1,
			[]plurality.Option{plurality.WithSeed(5), plurality.WithModel(plurality.Poisson), plurality.WithChurn(0.0001)},
			Result{Done: true, Winner: 0, ConsensusTime: 1971.9814644487312, FirstHaltTime: 1823.6377582647344, EndgameSafe: false, Time: 1971.9814644487312, Ticks: 2960099, Jumps: 10709, Churns: 299, MaxJumpAdjustment: 1667},
		},
		{
			"crashes", 2000, 4, 1,
			[]plurality.Option{plurality.WithSeed(11), plurality.WithCrashes(0.05)},
			Result{Done: true, Winner: 0, ConsensusTime: 1183.947, FirstHaltTime: 0, EndgameSafe: true, Time: 1183.947, Ticks: 2367895, Jumps: 7673, Churns: 0, MaxJumpAdjustment: 70},
		},
		{
			"desync", 1200, 3, 1,
			[]plurality.Option{plurality.WithSeed(13), plurality.WithModel(plurality.Poisson), plurality.WithDesync(0.1, 200)},
			Result{Done: true, Winner: 0, ConsensusTime: 1154.3632149051443, FirstHaltTime: 0, EndgameSafe: true, Time: 1154.3632149051443, Ticks: 1386334, Jumps: 4941, Churns: 0, MaxJumpAdjustment: 199},
		},
		{
			"no-gadget", 1000, 3, 1,
			[]plurality.Option{plurality.WithSeed(17), plurality.WithoutSyncGadget()},
			Result{Done: true, Winner: 0, ConsensusTime: 863.161, FirstHaltTime: 0, EndgameSafe: true, Time: 863.161, Ticks: 863162, Jumps: 0, Churns: 0, MaxJumpAdjustment: 0},
		},
		{
			"run-to-halt", 800, 3, 1,
			[]plurality.Option{plurality.WithSeed(19), plurality.WithModel(plurality.Poisson), plurality.WithRunToHalt()},
			Result{Done: true, Winner: 0, ConsensusTime: 877.6618499838572, FirstHaltTime: 1757.204949487311, EndgameSafe: true, Time: 1852.235575680197, Ticks: 1480517, Jumps: 5677, Churns: 0, MaxJumpAdjustment: 98},
		},
		{
			"endgame-only", 3000, 4, 8,
			[]plurality.Option{plurality.WithSeed(23), plurality.WithEndgameOnly()},
			Result{Done: true, Winner: 0, ConsensusTime: 7.3053333333333335, FirstHaltTime: 0, EndgameSafe: true, Time: 7.3053333333333335, Ticks: 21917, Jumps: 0, Churns: 0, MaxJumpAdjustment: 0},
		},
		{
			"delay", 600, 3, 1,
			[]plurality.Option{plurality.WithSeed(29), plurality.WithModel(plurality.Poisson), plurality.WithResponseDelay(4)},
			Result{Done: true, Winner: 0, ConsensusTime: 842.3338805143817, FirstHaltTime: 0, EndgameSafe: true, Time: 842.3338805143817, Ticks: 505252, Jumps: 1803, Churns: 0, MaxJumpAdjustment: 52},
		},
		{
			"latency", 600, 3, 1,
			[]plurality.Option{plurality.WithSeed(31), plurality.WithModel(plurality.Poisson), plurality.WithEdgeLatency(plurality.ExpEdgeLatency(0.2))},
			Result{Done: true, Winner: 0, ConsensusTime: 816.4606332408868, FirstHaltTime: 0, EndgameSafe: true, Time: 816.4606332408868, Ticks: 489455, Jumps: 1807, Churns: 0, MaxJumpAdjustment: 53},
		},
		{
			"delay-latency", 500, 3, 1,
			[]plurality.Option{plurality.WithSeed(37), plurality.WithEdgeLatency(plurality.UniformEdgeLatency(0, 0.3)), plurality.WithResponseDelay(8)},
			Result{Done: true, Winner: 0, ConsensusTime: 1097.166, FirstHaltTime: 0, EndgameSafe: true, Time: 1097.166, Ticks: 548584, Jumps: 2008, Churns: 0, MaxJumpAdjustment: 56},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			counts, err := plurality.Biased(tc.n, tc.k, tc.eps)
			if err != nil {
				t.Fatal(err)
			}
			var got Result
			if tc.name == "heap-poisson" {
				got = runHeap(t, counts)
			} else {
				job, err := plurality.NewJob("core", counts, tc.opts...)
				if err != nil {
					t.Fatal(err)
				}
				rep, err := job.Run(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				got, _ = rep.Core()
			}
			if got != tc.want {
				t.Fatalf("result drifted from the pre-packing engine:\n got  %+v\n want %+v", got, tc.want)
			}
		})
	}
}

// runHeap runs the protocol on the complete graph under the event-heap
// scheduler, with the streams and budget a Job seeded with 9 would use.
func runHeap(t *testing.T, counts []int64) Result {
	t.Helper()
	pop, err := population.FromCounts(counts)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.NewComplete(pop.N())
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.NewHeapPoisson(pop.N(), 1, rng.At(9, 0))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(pop, Config{Graph: g, Scheduler: s, Rand: rng.At(9, 1), MaxTime: plurality.DefaultMaxTime})
	if err != nil {
		t.Fatal(err)
	}
	return res
}
