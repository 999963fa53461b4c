package plurality

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"plurality/internal/protocols/dynamics"
)

// jobConfigs enumerates one Job configuration per runner family × engine
// path: every registry protocol on the population path and on the
// count-collapsed counts path, plus the synchronous model, core and
// OneExtraBit. The returned options always pin the seed.
func jobConfigs(t *testing.T, n, k int) []struct {
	name string
	spec string
	opts []Option
} {
	t.Helper()
	var cfgs []struct {
		name string
		spec string
		opts []Option
	}
	add := func(name, spec string, opts ...Option) {
		cfgs = append(cfgs, struct {
			name string
			spec string
			opts []Option
		}{name, spec, append([]Option{WithSeed(11)}, opts...)})
	}
	for _, d := range Protocols() {
		spec := d.RaceSpec
		add(spec+"/population", spec)
		add(spec+"/counts", spec, WithEngine(EngineOccupancy))
	}
	add("two-choices/sync", "two-choices", WithModel(Synchronous))
	add("core", "core")
	add("onebit", "onebit", WithMaxPhases(50))
	return cfgs
}

// flatReport strips the unexported detail pointers so reports can be
// compared with ==; the typed detail is compared separately.
type flatReport struct {
	rep    Report
	core   CoreResult
	onebit OneExtraBitResult
}

func flatten(rep Report) flatReport {
	f := flatReport{rep: rep}
	f.rep.core, f.rep.onebit = nil, nil
	f.core, _ = rep.Core()
	f.onebit, _ = rep.Phases()
	return f
}

// TestJobTrialsDeterministicAcrossWorkers: for every registered protocol on
// both the population and the counts path (plus core, sync and onebit),
// Job.Trials must be a pure function of (job, trials) — the worker count
// only changes wall-clock time, never results — and trial 0 must be
// bit-identical to Job.Run.
func TestJobTrialsDeterministicAcrossWorkers(t *testing.T) {
	counts, err := Biased(300, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const trials = 5
	for _, cfg := range jobConfigs(t, 300, 3) {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			t.Parallel()
			job, err := NewJob(cfg.spec, counts, cfg.opts...)
			if err != nil {
				t.Fatal(err)
			}
			run := func(workers int) []Report {
				j, err := NewJob(cfg.spec, counts, append(cfg.opts, WithTrialWorkers(workers))...)
				if err != nil {
					t.Fatal(err)
				}
				res, err := j.Trials(ctx, trials)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				return res
			}
			serial := run(1)
			for workers := 2; workers <= 8; workers++ {
				parallel := run(workers)
				for i := range serial {
					if flatten(serial[i]) != flatten(parallel[i]) {
						t.Fatalf("workers=%d trial %d: %+v != %+v", workers, i, parallel[i], serial[i])
					}
				}
			}

			// Trial 0 keeps the base seed: a 1-trial run is exactly Run.
			single, err := job.Run(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if flatten(serial[0]) != flatten(single) {
				t.Fatalf("trial 0 %+v != Run %+v", serial[0], single)
			}

			// Distinct trials must use decorrelated streams.
			allSame := true
			for i := 1; i < trials; i++ {
				if flatten(serial[i]) != flatten(serial[0]) {
					allSame = false
				}
			}
			if allSame {
				t.Error("all trials produced identical results; per-trial seeds look correlated")
			}
		})
	}
}

// TestTrialSeedStreamsPairwiseDistinct: the per-trial seed derivation must
// produce pairwise distinct streams over a large trial range (a collision
// would silently correlate two trials).
func TestTrialSeedStreamsPairwiseDistinct(t *testing.T) {
	const trials = 10_000
	for _, base := range []uint64{0, 1, 42, 1 << 63} {
		seen := make(map[uint64]int, trials)
		for i := 0; i < trials; i++ {
			s := TrialSeed(base, i)
			if prev, dup := seen[s]; dup {
				t.Fatalf("base %d: TrialSeed collision between trials %d and %d (seed %d)", base, prev, i, s)
			}
			seen[s] = i
		}
	}
}

// TestJobRunCanceledContextReturnsPromptly: an already-canceled context
// must abort every engine — core, per-node dynamics, the count-collapsed
// occupancy engine, the synchronous round loop, OneExtraBit — essentially
// immediately even at n = 10⁶, and surface as context.Canceled.
func TestJobRunCanceledContextReturnsPromptly(t *testing.T) {
	const n = 1_000_000
	counts, err := Biased(n, 4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cases := []struct {
		name string
		spec string
		opts []Option
	}{
		{name: "core", spec: "core"},
		{name: "per-node", spec: "two-choices", opts: []Option{WithEngine(EnginePerNode)}},
		{name: "occupancy", spec: "voter", opts: []Option{WithEngine(EngineOccupancy)}},
		{name: "sync", spec: "two-choices", opts: []Option{WithModel(Synchronous)}},
		{name: "onebit", spec: "onebit", opts: []Option{WithMaxPhases(1000)}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			job, err := NewJob(tc.spec, counts, append([]Option{WithSeed(3)}, tc.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			rep, err := job.Run(ctx)
			elapsed := time.Since(start)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if rep.Converged {
				t.Fatalf("run converged despite cancellation: %+v", rep)
			}
			if rep.Protocol != tc.spec {
				t.Fatalf("Protocol = %q, want %q", rep.Protocol, tc.spec)
			}
			// Generous bound: state setup is O(n) but simulation work — the
			// part cancellation must skip — would take far longer.
			if elapsed > 5*time.Second {
				t.Fatalf("cancellation took %v, want prompt return", elapsed)
			}
		})
	}
}

// TestJobNoActivationWithinMaxTime: when the first activation already lies
// beyond MaxTime, no tick is delivered, and every engine reports zero ticks
// at time zero, on its batched and its per-tick path alike.
func TestJobNoActivationWithinMaxTime(t *testing.T) {
	cases := []struct {
		name string
		spec string
		opts []Option
	}{
		{name: "core", spec: "core"},
		{name: "core/delayed", spec: "core", opts: []Option{WithResponseDelay(1)}},
		{name: "per-node", spec: "two-choices", opts: []Option{WithEngine(EnginePerNode)}},
		{name: "per-node/delayed", spec: "two-choices", opts: []Option{WithEngine(EnginePerNode), WithResponseDelay(1)}},
		{name: "occupancy", spec: "two-choices", opts: []Option{WithEngine(EngineOccupancy)}},
	}
	for _, tc := range cases {
		opts := append([]Option{WithModel(Poisson), WithSeed(3), WithMaxTime(1e-6)}, tc.opts...)
		job, err := NewJob(tc.spec, []int64{6, 4}, opts...)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		rep, err := job.Run(context.Background())
		if err == nil {
			t.Fatalf("%s: run within MaxTime 1e-6 returned no error: %+v", tc.name, rep)
		}
		if rep.Converged || rep.Ticks != 0 || rep.Time != 0 {
			t.Errorf("%s: converged=%v ticks=%d time=%v, want no activation delivered", tc.name, rep.Converged, rep.Ticks, rep.Time)
		}
	}
}

// TestJobDeadlineInterruptsLongRun: a deadline that expires mid-run stops
// the engine and reports progress so far.
func TestJobDeadlineInterruptsLongRun(t *testing.T) {
	counts, err := Uniform(200_000, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Voter on a near-tied workload needs ~n parallel time; a few
	// milliseconds of deadline interrupts it mid-flight.
	job, err := NewJob("voter", counts, WithSeed(1), WithEngine(EnginePerNode), WithMaxTime(1e9))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	rep, err := job.Run(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if rep.Ticks == 0 {
		t.Fatal("no progress recorded before the deadline")
	}
}

// TestJobValidateRejectsIgnoredOptions: options the selected runner would
// silently drop are compile-time (NewJob-time) errors naming the offending
// constructor.
func TestJobValidateRejectsIgnoredOptions(t *testing.T) {
	counts, err := Biased(1000, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		spec string
		opts []Option
		want string // substring of the error
	}{
		{name: "core rejects WithMaxRounds", spec: "core",
			opts: []Option{WithMaxRounds(5)}, want: "WithMaxRounds"},
		{name: "core rejects WithMaxPhases", spec: "core",
			opts: []Option{WithMaxPhases(2)}, want: "WithMaxPhases"},
		{name: "core rejects WithEngine", spec: "core",
			opts: []Option{WithEngine(EngineOccupancy)}, want: "WithEngine"},
		{name: "dynamic rejects WithProbe", spec: "voter",
			opts: []Option{WithProbe(1, func(CoreProbe) {})}, want: "WithProbe"},
		{name: "dynamic rejects core schedule overrides", spec: "two-choices",
			opts: []Option{WithDelta(5)}, want: "WithDelta"},
		{name: "counts path rejects WithResponseDelay", spec: "voter",
			opts: []Option{WithEngine(EngineOccupancy), WithResponseDelay(1)}, want: "WithResponseDelay"},
		{name: "counts path rejects WithEdgeLatency", spec: "voter",
			opts: []Option{WithEngine(EngineOccupancy), WithEdgeLatency(ExpEdgeLatency(1))}, want: "WithEdgeLatency"},
		{name: "sync rejects WithMaxTime", spec: "usd",
			opts: []Option{WithModel(Synchronous), WithMaxTime(10)}, want: "WithMaxTime"},
		{name: "sync rejects WithEngine", spec: "usd",
			opts: []Option{WithModel(Synchronous), WithEngine(EngineOccupancy)}, want: "WithEngine"},
		{name: "onebit rejects WithModel", spec: "onebit",
			opts: []Option{WithModel(Poisson)}, want: "WithModel"},
		{name: "onebit rejects WithChurn", spec: "onebit",
			opts: []Option{WithChurn(0.001)}, want: "WithChurn"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewJob(tc.spec, counts, tc.opts...)
			if err == nil {
				t.Fatal("want error, got nil")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want mention of %s", err, tc.want)
			}
		})
	}
}

// TestJobValidateEager: unknown protocols, bad parameters, malformed counts
// and model/engine mismatches fail at NewJob, before anything runs.
func TestJobValidateEager(t *testing.T) {
	good, err := Biased(1000, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	bad := []struct {
		name   string
		spec   string
		counts []int64
		opts   []Option
	}{
		{name: "unknown protocol", spec: "nope", counts: good},
		{name: "missing j", spec: "j-majority", counts: good},
		{name: "bad j", spec: "j-majority:x", counts: good},
		{name: "negative count", spec: "voter", counts: []int64{5, -1}},
		{name: "empty counts", spec: "voter", counts: nil},
		{name: "tiny total", spec: "voter", counts: []int64{1}},
		{name: "core n too small", spec: "core", counts: []int64{2, 1}},
		{name: "core synchronous", spec: "core", counts: good, opts: []Option{WithModel(Synchronous)}},
		{name: "graph size mismatch", spec: "voter", counts: good,
			opts: []Option{WithGraph(mustGraph(t, 12))}},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewJob(tc.spec, tc.counts, tc.opts...); err == nil {
				t.Fatal("want error, got nil")
			}
		})
	}
	// And the full option surface each kind consumes stays accepted.
	if _, err := NewJob("core", good, WithSeed(1), WithModel(Poisson), WithMaxTime(100),
		WithChurn(1e-6), WithCrashes(0.01), WithDesync(0.01, 10), WithRunToHalt(),
		WithProbe(10, func(CoreProbe) {}), WithObserver(10, func(Snapshot) {})); err != nil {
		t.Fatal(err)
	}
	if _, err := NewJob("j-majority:5", good, WithResponseDelay(1),
		WithEdgeLatency(ExpEdgeLatency(0.1)), WithEngine(EnginePerNode)); err != nil {
		t.Fatal(err)
	}
	if _, err := NewJob("usd", good, WithModel(Synchronous), WithMaxRounds(100)); err != nil {
		t.Fatal(err)
	}
	if _, err := NewJob("onebit", good, WithMaxPhases(5), WithPropagationRounds(3),
		WithPhaseObserver(func(PhaseInfo) {})); err != nil {
		t.Fatal(err)
	}
}

// TestJobValidateRates: NewJob rejects a response-delay rate that is not
// finite and positive, and a churn rate or crash fraction outside [0, 1),
// NaN included, on every kind that takes the option; a boundary value that
// is in range stays accepted.
func TestJobValidateRates(t *testing.T) {
	option := map[string]func(float64) Option{
		"WithResponseDelay": WithResponseDelay, "WithChurn": WithChurn, "WithCrashes": WithCrashes,
	}
	for _, tc := range []struct {
		option string
		value  float64
		spec   string
		ok     bool
	}{
		{"WithResponseDelay", -1, "two-choices", false},
		{"WithResponseDelay", 0, "two-choices", false},
		{"WithResponseDelay", math.NaN(), "two-choices", false},
		{"WithResponseDelay", math.Inf(1), "core", false},
		{"WithResponseDelay", 1e-9, "core", true},
		{"WithChurn", -0.1, "two-choices", false},
		{"WithChurn", math.NaN(), "two-choices", false},
		{"WithChurn", 1, "two-choices", false},
		{"WithChurn", -0.1, "core", false},
		{"WithChurn", 0, "core", true},
		{"WithCrashes", -0.1, "core", false},
		{"WithCrashes", math.NaN(), "core", false},
		{"WithCrashes", 1, "core", false},
		{"WithCrashes", 0, "core", true},
	} {
		t.Run(fmt.Sprintf("%s(%v)/%s", tc.option, tc.value, tc.spec), func(t *testing.T) {
			opts := []Option{option[tc.option](tc.value)}
			if tc.spec != "core" {
				opts = append(opts, WithEngine(EnginePerNode))
			}
			_, err := NewJob(tc.spec, []int64{600, 400}, opts...)
			switch {
			case tc.ok && err != nil:
				t.Fatalf("rejected an in-range value: %v", err)
			case !tc.ok && err == nil:
				t.Fatal("accepted an out-of-range value")
			case !tc.ok && !strings.Contains(err.Error(), tc.option):
				t.Fatalf("err = %v, want mention of %s", err, tc.option)
			}
		})
	}
}

// TestJobValidateRanges: NewJob rejects what a run would reject, or
// silently ignore, for options whose ranges the runners or the latency
// models define; the in-range rows stay accepted.
func TestJobValidateRanges(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name string
		spec string
		opt  Option
		want string // a substring of the error; "" for an accepted value
	}{
		{"WithDesync(-0.1,10)", "core", WithDesync(-0.1, 10), "DesyncFraction"},
		{"WithDesync(NaN,10)", "core", WithDesync(nan, 10), "DesyncFraction"},
		{"WithDesync(0.5,0)", "core", WithDesync(0.5, 0), "DesyncSpread"},
		{"WithDesync(0.1,10)", "core", WithDesync(0.1, 10), ""},
		{"WithMaxTime(+Inf)", "core", WithMaxTime(inf), "MaxTime"},
		{"WithProbe(NaN)", "core", WithProbe(nan, func(CoreProbe) {}), "ProbeInterval"},
		{"WithProbe(-1)", "core", WithProbe(-1, func(CoreProbe) {}), ""},
		{"WithPropagationRounds(-1)", "onebit", WithPropagationRounds(-1), "PropagationRounds"},
		{"WithPropagationRounds(0)", "onebit", WithPropagationRounds(0), ""},
		{"ExpEdgeLatency(-1)", "two-choices", WithEdgeLatency(ExpEdgeLatency(-1)), "latency mean"},
		{"ExpEdgeLatency(NaN)", "two-choices", WithEdgeLatency(ExpEdgeLatency(nan)), "latency mean"},
		{"ExpEdgeLatency(+Inf)", "core", WithEdgeLatency(ExpEdgeLatency(inf)), "latency mean"},
		{"ExpEdgeLatency(0.5)", "two-choices", WithEdgeLatency(ExpEdgeLatency(0.5)), ""},
		{"UniformEdgeLatency(2,1)", "two-choices", WithEdgeLatency(UniformEdgeLatency(2, 1)), "uniform latency"},
		{"UniformEdgeLatency(-1,1)", "core", WithEdgeLatency(UniformEdgeLatency(-1, 1)), "uniform latency"},
		{"UniformEdgeLatency(0,+Inf)", "two-choices", WithEdgeLatency(UniformEdgeLatency(0, inf)), "uniform latency"},
		{"UniformEdgeLatency(0,0.3)", "core", WithEdgeLatency(UniformEdgeLatency(0, 0.3)), ""},
		{"WithObserver(NaN)/two-choices", "two-choices", WithObserver(nan, func(Snapshot) {}), "WithObserver"},
		{"WithObserver(NaN)/core", "core", WithObserver(nan, func(Snapshot) {}), "WithObserver"},
		{"WithObserver(-1)", "two-choices", WithObserver(-1, func(Snapshot) {}), ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := []Option{tc.opt}
			if tc.spec == "two-choices" {
				opts = append(opts, WithEngine(EnginePerNode))
			}
			_, err := NewJob(tc.spec, []int64{600, 400}, opts...)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("rejected an in-range value: %v", err)
			case tc.want != "" && err == nil:
				t.Fatal("accepted an out-of-range value")
			case tc.want != "" && !strings.Contains(err.Error(), tc.want):
				t.Fatalf("err = %v, want mention of %s", err, tc.want)
			}
		})
	}
}

func mustGraph(t *testing.T, n int) Graph {
	t.Helper()
	g, err := CompleteGraph(n)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestJobRunOnShuffledPopulation: RunOn executes on a caller-prepared
// population (here laid onto a cycle), matching the job's own run from its
// counts byte for byte and leaving the population in its final state.
func TestJobRunOnShuffledPopulation(t *testing.T) {
	counts, err := Biased(400, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	g, err := CycleGraph(400)
	if err != nil {
		t.Fatal(err)
	}
	pop, err := NewPopulation(counts)
	if err != nil {
		t.Fatal(err)
	}
	job, err := NewJob("voter", counts, WithSeed(9), WithGraph(g), WithMaxTime(1e6))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rep, err := job.RunOn(ctx, pop)
	if err != nil {
		t.Fatal(err)
	}
	want, err := job.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep != want {
		t.Fatalf("RunOn %+v != Run %+v", rep, want)
	}
	if !rep.Converged || !pop.ConsensusOn(rep.Winner) {
		t.Fatalf("population %v not left on the winner of %+v", pop.Counts(), rep)
	}
}

// TestJobReusable: a Job is immutable — two Runs of the same job produce
// identical results and the bound counts never change.
func TestJobReusable(t *testing.T) {
	counts, err := Biased(500, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range [][]Option{
		{WithSeed(2)},
		{WithSeed(2), WithEngine(EngineOccupancy)},
	} {
		job, err := NewJob("two-choices", counts, opts...)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		first, err := job.Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		second, err := job.Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if first != second {
			t.Fatalf("repeated Run diverged: %+v != %+v", first, second)
		}
	}
}

// TestReportConversions: all four engine result types convert into the
// unified Report with their fields mapped and detail accessible.
func TestReportConversions(t *testing.T) {
	cr := CoreResult{Done: true, Winner: 2, ConsensusTime: 12.5, Time: 13, Ticks: 99, Jumps: 4, Churns: 1}
	rep := reportFromCore(cr)
	if rep.Kind != KindCore || !rep.Converged || rep.Winner != 2 || rep.ConsensusTime != 12.5 || rep.Ticks != 99 || rep.Churns != 1 {
		t.Fatalf("core conversion: %+v", rep)
	}
	if got, ok := rep.Core(); !ok || got != cr {
		t.Fatalf("Core() = %+v, %v", got, ok)
	}
	if _, ok := rep.Phases(); ok {
		t.Fatal("core report should not expose Phases()")
	}

	ar := dynamics.AsyncResult{Done: true, Winner: 1, Time: 7.5, Ticks: 10, Undecided: 3, Churns: 2}
	rep = reportFromAsync(ar)
	if rep.Kind != KindDynamic || rep.ConsensusTime != 7.5 || rep.Undecided != 3 {
		t.Fatalf("async conversion: %+v", rep)
	}
	if rep := reportFromAsync(dynamics.AsyncResult{Done: false, Time: 7.5}); rep.ConsensusTime != 0 {
		t.Fatalf("unconverged async run must not claim a consensus time: %+v", rep)
	}

	sr := dynamics.SyncResult{Done: true, Winner: 0, Rounds: 17, Undecided: 2}
	rep = reportFromSync(sr)
	if rep.Kind != KindSyncDynamic || rep.Rounds != 17 || rep.Undecided != 2 {
		t.Fatalf("sync conversion: %+v", rep)
	}

	or := OneExtraBitResult{Done: true, Winner: 3, Phases: 4, Rounds: 40}
	rep = reportFromOneExtraBit(or)
	if rep.Kind != KindOneExtraBit || rep.Rounds != 40 {
		t.Fatalf("onebit conversion: %+v", rep)
	}
	if got, ok := rep.Phases(); !ok || got != or {
		t.Fatalf("Phases() = %+v, %v", got, ok)
	}
}

// TestJobRejectsWhatNoPathHosts: jobs that compile only to fail at Run are
// rejected by NewJob, naming the refusing path and the missing capability.
func TestJobRejectsWhatNoPathHosts(t *testing.T) {
	counts := mustCounts(t, 1000, 2)
	annealed, err := AnnealedRegularGraph(1000, 8)
	if err != nil {
		t.Fatal(err)
	}
	cycle, err := CycleGraph(1000)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, spec, want string
		opts             []Option
	}{
		// The lumped engine hosts no adversary; EngineOccupancy on an
		// annealed topology resolves to it alone.
		{"occupancy + annealed + corrupt", "two-choices", "the lumped engine cannot host a corruption adversary",
			[]Option{WithGraph(annealed), WithEngine(EngineOccupancy), WithAdversary(advSpec(t, "corrupt", 4))}},
		// Crashed nodes stay sampled, so crash injection needs the clique.
		{"core crashes on a cycle", "core", "the core protocol cannot host WithCrashes",
			[]Option{WithGraph(cycle), WithCrashes(0.1)}},
	} {
		if _, err := NewJob(tc.spec, counts, tc.opts...); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: NewJob err = %v, want %q", tc.name, err, tc.want)
		}
	}
	// An inactive adversary on the lumped engine is bit-identical to none
	// and stays accepted.
	if _, err := NewJob("two-choices", counts, WithGraph(annealed), WithEngine(EngineOccupancy),
		WithAdversary(advSpec(t, "corrupt", 0))); err != nil {
		t.Errorf("inactive adversary on the lumped engine: %v", err)
	}
}
