package workload

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"tetrabft/internal/types"
)

// A Producer generates one stream on a goroutine of its own while its
// consumers read it, so that a run starts on the first arrivals instead of
// waiting for the last. The stream goes into one or more columns, each a
// consumer's share in arrival order. Every publishEvery arrivals the
// producer publishes the columns with a watermark: every arrival before the
// tick of the last one generated. A consumer reads a column through a
// Reader: when it needs the arrivals up to some tick, it waits, blocked,
// only until the watermark passes that tick or the stream is complete.
// Since arrivals come in tick order, what a consumer sees up to a tick is
// the same whenever it looks, so a run consumes the same stream whether the
// producer is ahead of it or behind.
type Producer struct {
	w    writer
	stop atomic.Bool // set by Close: the generator is abandoned

	mu      sync.Mutex
	cond    sync.Cond
	pub     []Column   // the columns as last published
	through types.Time // every arrival before through is in pub
	done    bool       // pub holds the whole stream
	fault   any        // what the generator panicked with, if it did
	exited  chan struct{}
}

// Column is one consumer's share of a produced stream: the arrival ticks
// and payloads of its arrivals, in arrival order. A published column is
// never written again; later publications extend it, in place or in a
// grown copy.
type Column struct {
	At       []types.Time
	Payloads [][]byte
}

// publishEvery is how many arrivals the producer generates between two
// publications.
const publishEvery = 256

// Produce starts generating a stream of count arrivals with gen on a new
// goroutine and returns at once; gen hands each arrival to the Sink it is
// given. Arrival j, with routing key key, goes to column home(j, key) of
// parts columns, or to column 0 when home is nil. Each column is sized up
// front for count/parts arrivals, so one column takes a stream of count
// arrivals without growing. A stream of no arrivals starts no goroutine.
func Produce(count, parts int, home func(j int, key string) int, gen func(Sink)) *Producer {
	p := &Producer{pub: make([]Column, parts), exited: make(chan struct{})}
	p.cond.L = &p.mu
	if count == 0 {
		p.done = true
		close(p.exited)
		return p
	}
	p.w = writer{p: p, home: home, cols: make([]Column, parts)}
	go p.run(count/parts, gen)
	return p
}

// run sizes the columns for n arrivals each and generates the stream into
// them, then publishes it whole. A panic of gen is kept for the readers;
// Close's stop ends gen early through Goexit.
func (p *Producer) run(n int, gen func(Sink)) {
	defer close(p.exited)
	defer func() {
		fault := recover()
		p.mu.Lock()
		copy(p.pub, p.w.cols)
		p.done, p.fault = true, fault
		p.cond.Broadcast()
		p.mu.Unlock()
	}()
	for i := range p.w.cols {
		p.w.cols[i] = Column{At: make([]types.Time, 0, n), Payloads: make([][]byte, 0, n)}
	}
	gen(&p.w)
}

// Reader returns a reader of column i.
func (p *Producer) Reader(i int) Reader { return Reader{p: p, col: i} }

// Close stops the generator if it is still running and waits for its
// goroutine to exit. A reader that syncs once Close has begun may find its
// column cut short and marked complete, so a consumer's readers are done
// before it calls Close.
func (p *Producer) Close() {
	p.stop.Store(true)
	<-p.exited
}

// writer is the Sink the producer's generator writes into; only the
// producer goroutine touches it.
type writer struct {
	p    *Producer
	home func(j int, key string) int
	cols []Column
	n    int // arrivals generated
}

func (w *writer) Arrive(at types.Time, _ int, key string, payload []byte) {
	c := &w.cols[0]
	if w.home != nil {
		c = &w.cols[w.home(w.n, key)]
	}
	c.At = append(c.At, at)
	c.Payloads = append(c.Payloads, payload)
	if w.n++; w.n%publishEvery == 0 {
		w.publish(at)
	}
}

// publish hands the columns so far to the consumers: every arrival before
// at, the tick of the last one, is in them.
func (w *writer) publish(at types.Time) {
	if w.p.stop.Load() {
		runtime.Goexit()
	}
	p := w.p
	p.mu.Lock()
	copy(p.pub, w.cols)
	p.through = at
	p.cond.Broadcast()
	p.mu.Unlock()
}

// A Reader is one consumer's view of a column of a produced stream: the
// column as far as the reader has synced it, every arrival before its
// watermark. A Reader of no Producer holds the whole column it was given.
// A Reader is not safe for concurrent use.
type Reader struct {
	Column
	p        *Producer
	col      int
	through  types.Time
	complete bool
}

// Sync brings the reader up to every arrival at or before now, blocking
// while the producer has not generated that far; it returns at once when
// the reader has got that far already. A panic of the generator is raised
// again here.
func (r *Reader) Sync(now types.Time) {
	if r.p == nil || r.complete || now < r.through {
		return
	}
	p := r.p
	p.mu.Lock()
	defer p.mu.Unlock()
	for !p.done && p.through <= now {
		p.cond.Wait()
	}
	if p.fault != nil {
		panic(p.fault)
	}
	r.Column, r.through, r.complete = p.pub[r.col], p.through, p.done
}

// SyncAll brings the reader up to the whole column.
func (r *Reader) SyncAll() { r.Sync(math.MaxInt64) }
