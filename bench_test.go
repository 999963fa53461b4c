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
// size, for profiling the simulators themselves.
package plurality_test

import (
	"context"
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

func BenchmarkProtocolCore(b *testing.B) {
	counts, err := plurality.Biased(4000, 4, 1)
	benchProtocol(b, "core", counts, err)
}

func BenchmarkProtocolTwoChoicesSync(b *testing.B) {
	counts, err := plurality.GapSqrt(8000, 8, 1)
	benchProtocol(b, "two-choices", counts, err, plurality.WithModel(plurality.Synchronous))
}

func BenchmarkProtocolTwoChoicesAsync(b *testing.B) {
	counts, err := plurality.Biased(8000, 8, 1)
	benchProtocol(b, "two-choices", counts, err)
}

func BenchmarkProtocolOneExtraBit(b *testing.B) {
	counts, err := plurality.GapSqrtPolylog(8000, 8, 0.5)
	benchProtocol(b, "onebit", counts, err)
}
