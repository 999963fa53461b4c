package plurality_test

import (
	"context"
	"fmt"
	"log"

	"plurality"
)

// Run the paper's asynchronous protocol on a caller-built population and
// read off the winner; RunOn leaves the population in its final state.
func ExampleJob_RunOn() {
	counts, err := plurality.Biased(10_000, 8, 0.5) // c1 = 1.5*c2
	if err != nil {
		log.Fatal(err)
	}
	pop, err := plurality.NewPopulation(counts)
	if err != nil {
		log.Fatal(err)
	}
	job, err := plurality.NewJob("core", counts, plurality.WithSeed(42))
	if err != nil {
		log.Fatal(err)
	}
	rep, err := job.RunOn(context.Background(), pop)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("winner: color %d\n", rep.Winner)
	fmt.Printf("unanimous: %v\n", pop.ConsensusOn(rep.Winner))
	// Output:
	// winner: color 0
	// unanimous: true
}

// Workload constructors realize the regimes of the paper's theorems.
func ExampleBiased() {
	counts, err := plurality.Biased(1000, 4, 1.0) // c1 = 2*c2
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(counts)
	// Output:
	// [400 200 200 200]
}

// The synchronous Two-Choices dynamic of Theorem 1.1: WithModel(Synchronous)
// runs a registry protocol in simultaneous rounds.
func ExampleWithModel() {
	counts, err := plurality.GapSqrt(5000, 4, 2) // gap 2*sqrt(n ln n)
	if err != nil {
		log.Fatal(err)
	}
	job, err := plurality.NewJob("two-choices", counts,
		plurality.WithSeed(7), plurality.WithModel(plurality.Synchronous))
	if err != nil {
		log.Fatal(err)
	}
	rep, err := job.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("plurality won: %v\n", rep.Winner == 0)
	// Output:
	// plurality won: true
}

// PlanCore inspects the Θ(log n)-sized schedule without running anything.
func ExamplePlanCore() {
	spec, err := plurality.PlanCore(100_000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("phase length: %d ticks (7 blocks of Delta=%d)\n", spec.PhaseTicks, spec.Delta)
	fmt.Printf("part 1: %d phases\n", spec.Phases)
	// Output:
	// phase length: 336 ticks (7 blocks of Delta=48)
	// part 1: 8 phases
}
