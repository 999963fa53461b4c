// Benchmark entry points, one per reproduced experiment table (E1–E12 plus
// the AB1–AB3 ablations): each iteration regenerates that experiment's
// table on its reduced (quick) grid, so
//
//	go test -bench=BenchmarkE6 -benchmem
//
// re-runs the main theorem's measurement end to end. The full tables come
// from `go run ./cmd/experiments -run all`.
//
// The BenchmarkProtocol* group measures single protocol runs at a fixed
// size, for profiling the simulators themselves, and BenchmarkClusterFabric
// does the same for the node runtime.
package plurality_test

import (
	"context"
	"errors"
	"io"
	"testing"

	"plurality"
	"plurality/internal/bench"
)

// benchExperiment runs one registered experiment per iteration on the
// reduced grid, with tables discarded.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := bench.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := e.Run(bench.Config{Out: io.Discard, Quick: true, Seed: uint64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1TwoChoicesUpper(b *testing.B)       { benchExperiment(b, "e1") }
func BenchmarkE2TwoChoicesLower(b *testing.B)       { benchExperiment(b, "e2") }
func BenchmarkE3SmallBiasUpset(b *testing.B)        { benchExperiment(b, "e3") }
func BenchmarkE4OneExtraBit(b *testing.B)           { benchExperiment(b, "e4") }
func BenchmarkE5QuadraticGrowth(b *testing.B)       { benchExperiment(b, "e5") }
func BenchmarkE6AsyncLogTime(b *testing.B)          { benchExperiment(b, "e6") }
func BenchmarkE7SyncGadget(b *testing.B)            { benchExperiment(b, "e7") }
func BenchmarkE8ClockConcentration(b *testing.B)    { benchExperiment(b, "e8") }
func BenchmarkE9Endgame(b *testing.B)               { benchExperiment(b, "e9") }
func BenchmarkE10PolyaUrn(b *testing.B)             { benchExperiment(b, "e10") }
func BenchmarkE11ModelEquivalence(b *testing.B)     { benchExperiment(b, "e11") }
func BenchmarkE12ResponseDelays(b *testing.B)       { benchExperiment(b, "e12") }
func BenchmarkAB1DeltaAblation(b *testing.B)        { benchExperiment(b, "ab1") }
func BenchmarkAB2GadgetSampleAblation(b *testing.B) { benchExperiment(b, "ab2") }
func BenchmarkAB3EndgameAblation(b *testing.B)      { benchExperiment(b, "ab3") }

// --- single-run protocol benchmarks (simulator profiling) ----------------

// benchProtocol runs one job of spec over counts per iteration, on a fresh
// population each time.
func benchProtocol(b *testing.B, spec string, counts []int64, err error, opts ...plurality.Option) {
	b.Helper()
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pop, err := plurality.NewPopulation(counts)
		if err != nil {
			b.Fatal(err)
		}
		job, err := plurality.NewJob(spec, counts, append(opts, plurality.WithSeed(uint64(i+1)))...)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := job.RunOn(ctx, pop); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProtocolCore and the two per-node Two-Choices benchmarks below
// run under the paper's model, unit-rate Poisson clocks (WithModel(Poisson)),
// so they reach the Poisson scheduler and, on the clique, the tick feed
// that draws ahead past a run's first 2¹⁶ ticks.
func BenchmarkProtocolCore(b *testing.B) {
	counts, err := plurality.Biased(4000, 4, 1)
	benchProtocol(b, "core", counts, err, plurality.WithModel(plurality.Poisson))
}

func BenchmarkProtocolTwoChoicesSync(b *testing.B) {
	counts, err := plurality.GapSqrt(8000, 8, 1)
	benchProtocol(b, "two-choices", counts, err, plurality.WithModel(plurality.Synchronous))
}

func BenchmarkProtocolTwoChoicesAsync(b *testing.B) {
	counts, err := plurality.Biased(8000, 8, 1)
	benchProtocol(b, "two-choices", counts, err)
}

// BenchmarkProtocolTwoChoicesPerNodeClique and
// BenchmarkProtocolTwoChoicesPerNodeCSR run the per-node engine's staged
// batch loop, which EngineAuto never picks for Two-Choices on the clique
// (it runs on the colour histogram), on the clique's direct draws and on a
// random 8-regular CSR graph's row draws, both under Poisson clocks.
func BenchmarkProtocolTwoChoicesPerNodeClique(b *testing.B) {
	counts, err := plurality.Biased(100_000, 4, 1)
	benchProtocol(b, "two-choices", counts, err,
		plurality.WithEngine(plurality.EnginePerNode), plurality.WithModel(plurality.Poisson))
}

func BenchmarkProtocolTwoChoicesPerNodeCSR(b *testing.B) {
	const n = 100_000
	g, err := plurality.RandomRegularGraph(n, 8, 1)
	counts, cerr := plurality.Biased(n, 4, 1)
	benchProtocol(b, "two-choices", counts, errors.Join(err, cerr),
		plurality.WithEngine(plurality.EnginePerNode), plurality.WithGraph(g), plurality.WithModel(plurality.Poisson))
}

func BenchmarkProtocolOneExtraBit(b *testing.B) {
	counts, err := plurality.GapSqrtPolylog(8000, 8, 0.5)
	benchProtocol(b, "onebit", counts, err)
}

func BenchmarkProtocolThreeMajorityOccupancy(b *testing.B) {
	counts, err := plurality.Biased(200_000, 4, 1)
	benchProtocol(b, "3-majority", counts, err, plurality.WithEngine(plurality.EngineOccupancy))
}

func BenchmarkProtocolJMajority5Occupancy(b *testing.B) {
	counts, err := plurality.Biased(30_000, 4, 1)
	benchProtocol(b, "j-majority:5", counts, err, plurality.WithEngine(plurality.EngineOccupancy))
}

// BenchmarkProtocolTwoChoicesAnnealedGnp runs on the degree-class lumped
// matrix: an annealed G(n, p) has many degree classes. Colours fill
// contiguous node blocks, so colour 0 holds the lowest degrees; ε = 3 keeps
// it the plurality of half-edges.
func BenchmarkProtocolTwoChoicesAnnealedGnp(b *testing.B) {
	const n = 20_000
	g, err := plurality.RandomGraph(n, 8.0/(n-1), 1)
	if err == nil {
		g, err = plurality.AnnealedGraph(g)
	}
	counts, cerr := plurality.Biased(n, 4, 3)
	benchProtocol(b, "two-choices", counts, errors.Join(err, cerr), plurality.WithGraph(g))
}

// BenchmarkTrialsShortRuns and BenchmarkTrialsLongRuns run per-node
// Two-Choices trials on the clique under Poisson clocks on every worker, on
// both sides of the tick feed's synchronous prefix: 2000 trials at
// n = 10³, whose runs all end within it and never start a goroutine, and
// 400 at n = 2·10⁴, whose runs draw their ticks ahead and discard what
// they drew past their end.
func BenchmarkTrialsShortRuns(b *testing.B) { benchTrials(b, 1000, 2000) }

func BenchmarkTrialsLongRuns(b *testing.B) { benchTrials(b, 20_000, 400) }

func benchTrials(b *testing.B, n, trials int) {
	counts, err := plurality.Biased(n, 4, 1)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		job, err := plurality.NewJob("two-choices", counts, plurality.WithSeed(uint64(i+1)),
			plurality.WithModel(plurality.Poisson), plurality.WithEngine(plurality.EnginePerNode))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := job.Trials(ctx, trials); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusterFabric runs Biased(1024, 4, 1) Two-Choices as a live
// cluster on the in-process fabric, lossless and with exponential edge
// latency plus drops, and reports node activations per second.
func BenchmarkClusterFabric(b *testing.B) {
	counts, err := plurality.Biased(1024, 4, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		tr   plurality.Transport
	}{
		{"lossless", plurality.NewChanTransport()},
		{"lossy", plurality.NewLossyChanTransport(plurality.NetFaults{Latency: 0.25, Drop: 0.01})},
	} {
		b.Run(tc.name, func(b *testing.B) {
			ctx := context.Background()
			b.ReportAllocs()
			var ticks int64
			for i := 0; i < b.N; i++ {
				cl, err := plurality.NewCluster(plurality.NodeConfig{
					Protocol:  "two-choices",
					Counts:    counts,
					Seed:      uint64(i + 1),
					Transport: tc.tr,
				})
				if err != nil {
					b.Fatal(err)
				}
				rep, err := cl.Run(ctx)
				if err != nil {
					b.Fatal(err)
				}
				ticks += rep.Ticks
			}
			b.ReportMetric(float64(ticks)/b.Elapsed().Seconds(), "activations/s")
		})
	}
}
