package plurality

import (
	"context"
	"strings"
	"testing"
)

// checkSnapshots validates the invariants every snapshot stream must obey:
// non-empty, histogram totals matching n, fractions in (0, 1], and a final
// fully-converged snapshot when the run converged and the interval divides
// finely enough to observe the last step.
func checkSnapshots(t *testing.T, snaps []Snapshot, n int64) {
	t.Helper()
	if len(snaps) == 0 {
		t.Fatal("observer delivered no snapshots")
	}
	for i, s := range snaps {
		var total int64
		for _, v := range s.Counts {
			total += v
		}
		total += s.Undecided
		if total != n {
			t.Fatalf("snapshot %d: histogram total %d != n %d (%+v)", i, total, n, s)
		}
		if s.ConvergedFraction <= 0 || s.ConvergedFraction > 1 {
			t.Fatalf("snapshot %d: converged fraction %v out of (0, 1]", i, s.ConvergedFraction)
		}
		if i > 0 && s.Time < snaps[i-1].Time {
			t.Fatalf("snapshot %d: time went backwards: %v after %v", i, s.Time, snaps[i-1].Time)
		}
	}
}

// TestWithObserverAllRunners: the uniform observation surface must stream
// snapshots from every runner family — core, per-node dynamics, the
// count-collapsed occupancy engine (dynamics trajectories on the counts
// path for the first time), the synchronous engine and OneExtraBit.
func TestWithObserverAllRunners(t *testing.T) {
	const n = 2000
	counts, err := Biased(n, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name     string
		spec     string
		interval float64
		opts     []Option
	}{
		{name: "core", spec: "core", interval: 50},
		{name: "per-node", spec: "two-choices", interval: 1,
			opts: []Option{WithEngine(EnginePerNode)}},
		{name: "auto-collapsed", spec: "two-choices", interval: 1},
		{name: "counts", spec: "usd", interval: 1,
			opts: []Option{WithEngine(EngineOccupancy)}},
		{name: "sync", spec: "3-majority", interval: 1,
			opts: []Option{WithModel(Synchronous)}},
		{name: "onebit", spec: "onebit", interval: 1,
			opts: []Option{WithMaxPhases(100)}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			var snaps []Snapshot
			record := func(s Snapshot) {
				c := s
				c.Counts = append([]int64(nil), s.Counts...) // Counts is only valid in the callback
				snaps = append(snaps, c)
			}
			opts := append([]Option{WithSeed(7), WithObserver(tc.interval, record)}, tc.opts...)
			job, err := NewJob(tc.spec, counts, opts...)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := job.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Converged {
				t.Fatalf("run did not converge: %+v", rep)
			}
			checkSnapshots(t, snaps, n)
		})
	}
}

// TestObserverDoesNotPerturbUnobservedRuns: attaching an observer must not
// change what an unobserved run with the same seed produces on engines with
// materialized per-tick times (per-node, sync, onebit, core). The
// count-collapsed engine is exempt by contract: observation forces tick
// mode, which consumes the RNG differently from leap mode.
func TestObserverDoesNotPerturbUnobservedRuns(t *testing.T) {
	counts, err := Biased(1200, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		spec string
		opts []Option
	}{
		{name: "core", spec: "core"},
		{name: "per-node", spec: "two-choices", opts: []Option{WithEngine(EnginePerNode)}},
		{name: "sync", spec: "voter", opts: []Option{WithModel(Synchronous)}},
		{name: "onebit", spec: "onebit", opts: []Option{WithMaxPhases(50)}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			base := append([]Option{WithSeed(13)}, tc.opts...)
			plain, err := NewJob(tc.spec, counts, base...)
			if err != nil {
				t.Fatal(err)
			}
			observed, err := NewJob(tc.spec, counts,
				append(base, WithObserver(10, func(Snapshot) {}))...)
			if err != nil {
				t.Fatal(err)
			}
			want, err := plain.Run(ctx)
			if err != nil {
				t.Fatal(err)
			}
			got, err := observed.Run(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if flatten(got) != flatten(want) {
				t.Fatalf("observer changed the run: %+v != %+v", got, want)
			}
		})
	}
}

// TestTrajectoryRecordsRun: the Trajectory helper (the public face of
// internal/trace) collects the converged-fraction series and renders a
// sparkline.
func TestTrajectoryRecordsRun(t *testing.T) {
	counts, err := Biased(5000, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	traj := NewTrajectory()
	job, err := NewJob("two-choices", counts, WithSeed(2),
		WithEngine(EngineOccupancy), traj.Observer(0.5))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := job.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged {
		t.Fatalf("run did not converge: %+v", rep)
	}
	if traj.Len() == 0 {
		t.Fatal("trajectory recorded nothing")
	}
	if last := traj.Last(); last != 1 {
		t.Fatalf("final converged fraction = %v, want 1", last)
	}
	times, fracs := traj.Series(SeriesConverged)
	if len(times) != traj.Len() || len(fracs) != traj.Len() {
		t.Fatalf("series lengths %d/%d != %d", len(times), len(fracs), traj.Len())
	}
	if spark := traj.Sparkline(30); len([]rune(spark)) != 30 {
		t.Fatalf("sparkline %q, want width 30", spark)
	}
}

// TestOneExtraBitWithMaxPhases: the option bounds the phase budget
// directly, and a round budget, which bounds the synchronous dynamics only,
// is rejected.
func TestOneExtraBitWithMaxPhases(t *testing.T) {
	// A hard workload that cannot converge in one short phase.
	counts, err := Uniform(2000, 16)
	if err != nil {
		t.Fatal(err)
	}
	run := func(opts ...Option) OneExtraBitResult {
		rep, _ := runJob(t, "onebit", counts, append([]Option{WithSeed(4), WithPropagationRounds(1)}, opts...)...)
		res, _ := rep.Phases()
		return res
	}

	// Explicit budget: the run must stop at exactly the requested phase
	// count when it cannot converge.
	for _, phases := range []int{1, 2, 4} {
		if res := run(WithMaxPhases(phases)); res.Done || res.Phases != phases {
			t.Fatalf("WithMaxPhases(%d): %+v, want %d exhausted phases", phases, res, phases)
		}
	}

	// Rounds bound the synchronous dynamics only, and a phase budget must
	// be positive.
	if _, err := NewJob("onebit", counts, WithMaxRounds(40)); err == nil || !strings.Contains(err.Error(), "rounds bound the synchronous runners only") {
		t.Fatalf("onebit with WithMaxRounds: err = %v", err)
	}
	if _, err := NewJob("onebit", counts, WithMaxPhases(0)); err == nil {
		t.Fatal("onebit with WithMaxPhases(0): no error")
	}
}

// TestObserverFinalSnapshotOnCancellation: the WithObserver contract — the
// stream always closes with the state the run ended in — must hold for
// canceled runs on every engine family, including the synchronous round
// loop (which stops between rounds) and runs canceled before their first
// activation.
func TestObserverFinalSnapshotOnCancellation(t *testing.T) {
	counts, err := Uniform(50_000, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name string
		spec string
		opts []Option
	}{
		{name: "occupancy", spec: "voter", opts: []Option{WithEngine(EngineOccupancy)}},
		{name: "per-node", spec: "voter", opts: []Option{WithEngine(EnginePerNode)}},
		{name: "sync", spec: "voter", opts: []Option{WithModel(Synchronous)}},
		{name: "core", spec: "core"},
		{name: "onebit", spec: "onebit", opts: []Option{WithMaxPhases(100)}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			var snaps []Snapshot
			job, err := NewJob(tc.spec, counts, append(tc.opts,
				WithSeed(3), WithObserver(1e9, func(s Snapshot) { snaps = append(snaps, s) }))...)
			if err != nil {
				t.Fatal(err)
			}
			rep, runErr := job.Run(ctx)
			if runErr == nil {
				t.Fatalf("canceled run returned nil error (rep %+v)", rep)
			}
			if len(snaps) == 0 {
				t.Fatal("canceled run closed the observation stream without a final snapshot")
			}
			last := snaps[len(snaps)-1]
			var total int64
			for _, v := range last.Counts {
				total += v
			}
			if total+last.Undecided != 50_000 {
				t.Fatalf("final snapshot histogram total %d, want n", total+last.Undecided)
			}
		})
	}
}

// TestStopBeforeFirstTickReportsZeroTicks: a cancellation that lands before
// any activation was delivered must not invent a tick from the zero-value
// scheduler state.
func TestStopBeforeFirstTickReportsZeroTicks(t *testing.T) {
	counts, err := Biased(10_000, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name string
		spec string
		opts []Option
	}{
		{name: "core", spec: "core"},
		{name: "core-observed", spec: "core",
			opts: []Option{WithObserver(10, func(Snapshot) {})}},
		{name: "core-probed", spec: "core",
			opts: []Option{WithProbe(10, func(CoreProbe) {})}},
		{name: "per-node", spec: "voter", opts: []Option{WithEngine(EnginePerNode)}},
		{name: "per-node-observed", spec: "voter",
			opts: []Option{WithEngine(EnginePerNode), WithObserver(10, func(Snapshot) {})}},
		{name: "occupancy", spec: "voter", opts: []Option{WithEngine(EngineOccupancy)}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			job, err := NewJob(tc.spec, counts, append(tc.opts, WithSeed(3))...)
			if err != nil {
				t.Fatal(err)
			}
			rep, _ := job.Run(ctx)
			if rep.Ticks != 0 {
				t.Fatalf("Ticks = %d before any delivered activation, want 0", rep.Ticks)
			}
		})
	}
}
