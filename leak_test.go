package plurality_test

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"plurality"
	"plurality/internal/sched"
)

// quietGoroutines returns the goroutine count once it stops falling, so
// that goroutines of earlier tests still on their way out do not count.
func quietGoroutines() int {
	g := runtime.NumGoroutine()
	for range 100 {
		time.Sleep(10 * time.Millisecond)
		h := runtime.NumGoroutine()
		if h == g {
			break
		}
		g = h
	}
	return g
}

// producers counts the goroutines running a tick feed's producer.
func producers() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "sched.(*pipe).produce")
}

// settleGoroutines waits until at most bound goroutines are alive (a
// joined goroutine may still be returning) and fails the test after a
// second.
func settleGoroutines(t *testing.T, bound int) {
	t.Helper()
	for i := 0; ; i++ {
		g := runtime.NumGoroutine()
		if g <= bound {
			return
		}
		if i == 100 {
			t.Fatalf("goroutines leaked: %d alive, want at most %d", g, bound)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRunLeavesNoGoroutine: a clique run under Poisson clocks draws its
// ticks ahead on a second goroutine once it passes the feed's synchronous
// prefix, and joins that goroutine before Job.Run returns, whether the run
// ends by consensus, by its time budget or by a canceled context.
func TestRunLeavesNoGoroutine(t *testing.T) {
	before := quietGoroutines()
	poisson := plurality.WithModel(plurality.Poisson)
	perNode := plurality.WithEngine(plurality.EnginePerNode)
	job := func(spec string, n int, opts ...plurality.Option) *plurality.Job {
		t.Helper()
		counts, err := plurality.Biased(n, 4, 1)
		if err != nil {
			t.Fatal(err)
		}
		j, err := plurality.NewJob(spec, counts, append(opts, poisson)...)
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	for _, tc := range []struct {
		name string
		job  *plurality.Job
		done bool
	}{
		{"per-node consensus", job("two-choices", 20_000, perNode), true},
		{"core consensus", job("core", 2_000), true},
		{"time budget", job("two-choices", 20_000, perNode, plurality.WithMaxTime(5)), false},
	} {
		rep, err := tc.job.Run(context.Background())
		if tc.done && err != nil || !tc.done && !errors.Is(err, plurality.ErrTimeLimit) {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if rep.Ticks <= sched.FeedSyncTicks {
			t.Fatalf("%s: %d ticks end the run before the feed runs ahead", tc.name, rep.Ticks)
		}
		settleGoroutines(t, before)
	}

	// Canceled once the producer runs, on both engines that draw ahead.
	for _, j := range []*plurality.Job{
		job("voter", 20_000, perNode, plurality.WithMaxTime(1e6)),
		job("core", 20_000, plurality.WithMaxTime(1e6)),
	} {
		ctx, cancel := context.WithCancel(context.Background())
		sawProducer := make(chan bool, 1)
		go func() {
			defer cancel()
			for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
				if producers() > 0 {
					sawProducer <- true
					return
				}
			}
			sawProducer <- false
		}()
		_, err := j.Run(ctx)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s canceled: %v", j.Protocol(), err)
		}
		if !<-sawProducer {
			t.Fatalf("%s: the canceled run never ran ahead", j.Protocol())
		}
		settleGoroutines(t, before)
	}
}
