package sched

import (
	"runtime"
	"testing"
	"time"

	"plurality/internal/rng"
)

// serve returns the ticks of the feed's next batches, checking that each
// batch holds BatchSize ticks.
func serve(t *testing.T, f *Feed, batches int) []Tick {
	t.Helper()
	var out []Tick
	for range batches {
		b := f.Next()
		if len(b) != BatchSize {
			t.Fatalf("batch of %d ticks, want %d", len(b), BatchSize)
		}
		out = append(out, b...)
	}
	return out
}

// sameTicks fails the test at the first tick where got and want differ.
func sameTicks(t *testing.T, name string, got, want []Tick) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: tick %d: fed %+v, NextBatch %+v", name, i, got[i], want[i])
		}
	}
}

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

// settle waits until at most bound goroutines are alive (a joined producer
// may still be returning) and fails the test after a second.
func settle(t *testing.T, bound int) {
	t.Helper()
	for i := 0; ; i++ {
		g := runtime.NumGoroutine()
		if g <= bound {
			return
		}
		if i == 100 {
			t.Fatalf("%d goroutines alive after Close, want at most %d", g, bound)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFeedMatchesNextBatch: a feed serves exactly the ticks of successive
// NextBatch calls for every scheduler, allowed to run ahead or not, across
// the switch from the engine's goroutine to the producer, through every
// chunk several times over, and again on a second run that reuses the feed
// and its pooled chunks. Only a Poisson scheduler that is allowed to runs
// ahead.
func TestFeedMatchesNextBatch(t *testing.T) {
	const n = 1000
	batches := FeedSyncTicks/BatchSize + 3*feedChunks*feedChunk/BatchSize + 1
	var f Feed
	for run := uint64(0); run < 2; run++ {
		for name := range engines(t, n, 5+run) {
			for _, ahead := range []bool{false, true} {
				s, ref := engines(t, n, 5+run)[name], engines(t, n, 5+run)[name]
				f.Start(s, rng.New(99), ahead)
				got := serve(t, &f, batches)
				if ran, want := f.pipe != nil, ahead && name == "poisson"; ran != want {
					t.Fatalf("%s ahead=%v: ran ahead %v, want %v", name, ahead, ran, want)
				}
				f.Close()
				want := make([]Tick, len(got))
				ref.NextBatch(want)
				sameTicks(t, name, got, want)
			}
		}
	}
}

// TestFeedCloseJoinsProducer: Close leaves no goroutine behind from every
// state a run can end in: never started, started but never served, still
// on the engine's goroutine, just after the switch, with the producer
// blocked because every chunk is full, and with the engine mid-chunk.
func TestFeedCloseJoinsProducer(t *testing.T) {
	before := quietGoroutines()
	sync := FeedSyncTicks / BatchSize
	var f Feed
	f.Close()
	for _, tc := range []struct {
		name    string
		batches int
		full    bool // wait for the producer to fill every chunk it holds
	}{
		{"started, never served", 0, false},
		{"on the engine's goroutine", sync, false},
		{"just after the switch", sync + 1, false},
		{"producer blocked on a full queue", sync + 1, true},
		{"mid-chunk", sync + feedChunk/BatchSize + 2, false},
	} {
		s, err := NewPoisson(1000, 1, rng.New(7))
		if err != nil {
			t.Fatal(err)
		}
		f.Start(s, rng.New(8), true)
		serve(t, &f, tc.batches)
		if ran, want := f.pipe != nil, tc.batches > sync; ran != want {
			t.Fatalf("%s: ran ahead %v, want %v", tc.name, ran, want)
		}
		if tc.full {
			// The engine holds one chunk; the producer fills the rest and
			// then blocks for a free one.
			deadline := time.Now().Add(time.Second)
			for len(f.pipe.full) < feedChunks-1 {
				if time.Now().After(deadline) {
					t.Fatalf("%s: %d of %d chunks filled after a second", tc.name, len(f.pipe.full), feedChunks-1)
				}
				time.Sleep(time.Millisecond)
			}
		}
		f.Close()
		settle(t, before)
	}
}

// TestFeedSharedGeneratorNeverRunsAhead: a Poisson scheduler that draws
// from the engine's generator, or one whose engine does not allow it, is
// fed on the engine's goroutine for the whole run, however long. With a
// shared generator the engine draws between batches, as a run does; a
// producer drawing ahead would change the ticks that follow, and race with
// the engine.
func TestFeedSharedGeneratorNeverRunsAhead(t *testing.T) {
	const n = 1000
	before := quietGoroutines()
	batches := FeedSyncTicks/BatchSize + 2*feedChunks*feedChunk/BatchSize
	for _, shared := range []bool{true, false} {
		r, ref := rng.New(3), rng.New(3)
		s, err := NewPoisson(n, 1, r)
		if err != nil {
			t.Fatal(err)
		}
		sref, err := NewPoisson(n, 1, ref)
		if err != nil {
			t.Fatal(err)
		}
		engine, ahead := r, true
		if !shared {
			engine, ahead = rng.New(4), false
		}
		var f Feed
		f.Start(s, engine, ahead)
		want := make([]Tick, BatchSize)
		for range batches {
			got := f.Next()
			sref.NextBatch(want)
			sameTicks(t, "poisson", got, want)
			if shared && r.Uint64() != ref.Uint64() {
				t.Fatal("the shared generator drifted from the reference")
			}
		}
		if f.pipe != nil || runtime.NumGoroutine() > before {
			t.Fatalf("shared=%v: the feed ran ahead", shared)
		}
		f.Close()
	}
}
