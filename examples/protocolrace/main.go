// Protocolrace: every registered sampling dynamic races on one workload.
//
// Same population, same clocks, every protocol the registry knows —
// Two-Choices, Voter, 3-Majority, Undecided-State Dynamics, j-Majority —
// plus the paper's core protocol. The racers come straight from
// plurality.Protocols(), so a newly registered dynamic joins the race
// without touching this file, and each racer is one plurality.Job whose
// pooled Trials fan the repetitions across cores. The table reports
// parallel consensus time and whether the plurality color actually won,
// making the trade-offs concrete: Voter is obliviously fast to *a*
// consensus but has no plurality guarantee; the sampling dynamics are quick
// while k is small; the core protocol pays a constant-factor schedule
// overhead in exchange for its Θ(log n) guarantee independent of k.
//
//	go run ./examples/protocolrace
package main

import (
	"context"
	"errors"
	"fmt"
	"log"

	"plurality"
)

func main() {
	// Small enough that the slowest racer (Voter's lazy random walk needs
	// ~n² effective transitions) finishes in seconds.
	const (
		n      = 5_000
		k      = 8
		eps    = 1.0
		trials = 3
	)
	counts, err := plurality.Biased(n, k, eps)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("workload: n=%d, k=%d, c1=%d vs runner-ups %d (eps=%.1f)\n\n",
		n, k, counts[0], counts[1], eps)

	type racer struct {
		name string
		note string
		job  *plurality.Job
	}
	compile := func(spec string, opts ...plurality.Option) *plurality.Job {
		job, err := plurality.NewJob(spec, counts, append(opts, plurality.WithSeed(100))...)
		if err != nil {
			log.Fatal(err)
		}
		return job
	}
	racers := []racer{{name: "core (paper)", job: compile("core")}}
	// Every registered sampling dynamic joins via its race spec.
	for _, d := range plurality.Protocols() {
		note := ""
		if !d.PluralityWins {
			note = "no plurality guarantee"
		}
		racers = append(racers, racer{
			name: d.RaceSpec,
			note: note,
			job:  compile(d.RaceSpec, plurality.WithMaxTime(1e6)),
		})
	}

	ctx := context.Background()
	fmt.Printf("%-14s %-12s %-10s %s\n", "protocol", "median time", "plurality", "notes")
	for _, r := range racers {
		reps, err := r.job.Trials(ctx, trials)
		if err != nil && !errors.Is(err, plurality.ErrTimeLimit) && !errors.Is(err, plurality.ErrNoConsensus) {
			log.Fatal(err)
		}
		var times []float64
		wins := 0
		for _, rep := range reps {
			if rep.Converged && rep.Winner == 0 {
				wins++
			}
			t := rep.ConsensusTime
			if !rep.Converged {
				// A timed-out trial consumed its whole budget; recording 0
				// would make the slowest racer look fastest.
				t = rep.Time
			}
			times = append(times, t)
		}
		fmt.Printf("%-14s %-12.0f %d/%-8d %s\n", r.name, medianOf(times), wins, trials, r.note)
	}
}

func medianOf(xs []float64) float64 {
	// Insertion sort — three elements.
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
	return xs[len(xs)/2]
}
