package sched

import (
	"runtime"

	"plurality/internal/rng"
)

// FeedSyncTicks is how many ticks of a run a Feed draws on the engine's
// goroutine before it may start a producer, so short runs never start a
// goroutine.
const FeedSyncTicks = 1 << 16

// Past FeedSyncTicks a producer fills feedChunks chunks of feedChunk ticks
// in turn, so it can run up to three chunks ahead of the one the engine
// reads. The chunks hold 8192 ticks, 192 KiB: a run that allocates them
// adds under 2 B per node at n = 10⁵, the scale grid's allocation bound,
// and a finished run discards at most 8192 ticks drawn past its end.
const (
	feedChunk  = 4 * BatchSize
	feedChunks = 4
)

// Feed hands a BatchScheduler's ticks to an engine in BatchSize batches:
// exactly the ticks that successive NextBatch calls return, in order.
//
// When the engine allows it, a Feed over a Poisson scheduler whose
// generator the engine does not share draws ahead on a second goroutine.
// The first FeedSyncTicks ticks of a run are drawn on the engine's
// goroutine; from then on a producer goroutine fills chunks of feedChunk
// ticks with NextBatch while the engine consumes earlier ones. A Poisson
// tick costs an exponential gap, and so a logarithm, which the engine then
// no longer waits for. The scheduler draws only from its own generator, so
// which goroutine draws a tick changes no result. Every other feed —
// another scheduler, a shared generator, or an engine that did not allow
// it — calls NextBatch on the engine's goroutine, batch by batch.
//
// A Feed serves one run at a time: Start begins it and Close ends it. Close
// must run on every path out of the run, since it stops and joins the
// producer. The scheduler's state after Close is undefined: the producer
// may have drawn ticks that no batch served. The zero Feed is ready to use,
// and the producer's chunks are kept across runs.
type Feed struct {
	s     BatchScheduler
	ahead *Poisson // s, when the run may draw ahead; else nil
	sync  int      // batches still to draw on the engine's goroutine
	buf   []Tick   // the batch drawn on the engine's goroutine
	pipe  *pipe    // the producer, once started
	chunk []Tick   // the chunk being served
	off   int      // ticks of chunk already served
}

// Start begins a run fed from s. engine is the generator the engine draws
// from, and ahead is whether the engine allows drawing ahead; the feed
// draws ahead only when both allow it and s is a *Poisson. A run still
// open is closed first.
func (f *Feed) Start(s BatchScheduler, engine *rng.RNG, ahead bool) {
	f.Close()
	f.s, f.ahead, f.sync = s, nil, FeedSyncTicks/BatchSize
	if p, ok := s.(*Poisson); ok && ahead && p.r != engine {
		f.ahead = p
	}
	if f.buf == nil {
		f.buf = make([]Tick, BatchSize)
	}
}

// Next returns the run's next BatchSize ticks. The slice is valid until
// the next call to Next or Close.
func (f *Feed) Next() []Tick {
	if f.pipe == nil {
		if f.ahead == nil || f.sync > 0 {
			f.sync--
			f.s.NextBatch(f.buf)
			return f.buf
		}
		f.pipe = startPipe(f.ahead)
	}
	if f.off == len(f.chunk) {
		if f.chunk != nil {
			f.pipe.free <- f.chunk
		}
		f.chunk, f.off = <-f.pipe.full, 0
	}
	b := f.chunk[f.off : f.off+BatchSize : f.off+BatchSize]
	f.off += BatchSize
	return b
}

// Close ends the run: it stops and joins the producer, if one started, and
// keeps its chunks for a later run. Closing a Feed that is not running
// does nothing.
func (f *Feed) Close() {
	if f.pipe == nil {
		return
	}
	f.pipe.stop()
	select {
	case idle <- f.pipe:
	default:
	}
	f.pipe, f.chunk, f.off = nil, nil, 0
}

// pipe is one producer's chunks and the channels that pass them between
// the producer and the engine. Both channels hold feedChunks chunks, and
// every chunk is in exactly one place — free, the producer's hands, full,
// or the engine's Feed.chunk — so no send on them blocks.
type pipe struct {
	ticks []Tick      // the chunks' backing array
	full  chan []Tick // filled chunks, in tick order
	free  chan []Tick // chunks to fill; nil stops the producer
	done  chan struct{}
}

// idle keeps the pipes of finished runs for later ones, one per processor
// at most, which is as many runs as Job.Trials runs at once by default. A
// sync.Pool lost them: a pipe put in one processor's private slot is not
// found by a get on another, and a garbage collection drops what stays
// unused across two, so the pernode-clique benchmark allocated a pipe in
// every repetition of its three runs.
var idle = make(chan *pipe, runtime.GOMAXPROCS(0))

// startPipe hands p to a new producer goroutine with every chunk free.
func startPipe(p *Poisson) *pipe {
	var pp *pipe
	select {
	case pp = <-idle:
	default:
		pp = &pipe{
			ticks: make([]Tick, feedChunks*feedChunk),
			full:  make(chan []Tick, feedChunks),
			free:  make(chan []Tick, feedChunks),
			done:  make(chan struct{}, 1),
		}
	}
	for c := range feedChunks {
		pp.free <- pp.ticks[c*feedChunk : (c+1)*feedChunk : (c+1)*feedChunk]
	}
	go pp.produce(p)
	return pp
}

// produce fills free chunks with p's ticks, in order, until it receives
// nil. It is p's only user while it runs.
func (pp *pipe) produce(p *Poisson) {
	for c := <-pp.free; c != nil; c = <-pp.free {
		p.NextBatch(c)
		pp.full <- c
	}
	pp.done <- struct{}{}
}

// stop takes back the chunks the producer has not started, stops it after
// the one it may be filling, waits for it to exit and empties full.
func (pp *pipe) stop() {
drain:
	for {
		select {
		case <-pp.free:
		default:
			break drain
		}
	}
	pp.free <- nil
	<-pp.done
	for len(pp.full) > 0 {
		<-pp.full
	}
}
