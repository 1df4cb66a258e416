package main

import (
	"sync"
	"time"

	"tetrabft/internal/blockchain"
)

// retryAfter is how long an open-loop client waits for an operation to
// commit before it submits it again: a little over the view
// timeout (9Δ = 450 ms), within which a healthy or a degraded cluster
// commits whatever it is going to commit.
const retryAfter = 600 * time.Millisecond

// retryDeadline bounds how long after the last due time the client keeps
// retrying; an operation still uncommitted then has failed.
const retryDeadline = 12 * time.Second

// retrier is the client side of the cluster workloads. A batch drained
// into a proposal that a view change aborts is gone (the pool does not take
// it back): with a replica down about half of all submissions never commit,
// and in a fault-free run one disk stall longer than the view timeout costs
// a few batches. A client that wants its operation done submits it again,
// under a new transaction number, until it hears that one of the attempts
// committed. The operation's latency runs from its due time to the first
// commit of any attempt.
type retrier struct {
	pool  *blockchain.TimedMempool
	start time.Time // the generator's start; times below are offsets from it
	ops   [][]byte  // first attempts; transaction number = operation index

	mu        sync.Mutex
	sent      int             // operations handed over so far (in order)
	low       int             // every operation below this has committed
	lastSent  []time.Duration // per operation
	committed []bool          // per operation
	pending   int             // sent and not yet committed
	// Per retry, in transaction-number order after the first attempts:
	// the operation it repeats and when it was sent.
	opOf   []int
	sentAt []time.Duration

	stop chan struct{}
	done chan struct{}
}

func newRetrier(ops [][]byte) *retrier {
	return &retrier{
		ops:      ops,
		lastSent: make([]time.Duration, len(ops)), committed: make([]bool, len(ops)),
		stop: make(chan struct{}), done: make(chan struct{}),
	}
}

// opFor maps a transaction number to its operation.
func (r *retrier) opFor(seq uint64) (int, bool) {
	if seq < uint64(len(r.ops)) {
		return int(seq), true
	}
	if k := seq - uint64(len(r.ops)); k < uint64(len(r.opOf)) {
		return r.opOf[k], true
	}
	return 0, false
}

// committedTxs is the cluster's onCommit hook.
func (r *retrier) committedTxs(txs [][]byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, tx := range txs {
		seq, ok := txSeq(tx)
		if !ok {
			continue
		}
		if op, ok := r.opFor(seq); ok && !r.committed[op] {
			r.committed[op] = true
			r.pending--
		}
	}
}

// first submits operation i for the first time. A pool that is full
// refuses it; it is then overdue like any lost submission.
func (r *retrier) first(i int) {
	r.mu.Lock()
	r.sent, r.lastSent[i] = i+1, time.Since(r.start)
	r.pending++
	r.mu.Unlock()
	r.pool.Submit(0, r.ops[i])
}

// run resubmits overdue operations every 20 ms until halt.
func (r *retrier) run() {
	go func() {
		defer close(r.done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-r.stop:
				return
			case <-tick.C:
			}
			var again [][]byte
			now := time.Since(r.start)
			r.mu.Lock()
			for r.low < r.sent && r.committed[r.low] {
				r.low++
			}
			for op := r.low; op < r.sent; op++ {
				if !r.committed[op] && now-r.lastSent[op] >= retryAfter {
					again = append(again, r.again(op, now))
				}
			}
			r.mu.Unlock()
			for _, tx := range again {
				r.pool.Submit(0, tx)
			}
		}
	}()
}

// again builds the next attempt at op; the caller holds mu.
func (r *retrier) again(op int, now time.Duration) []byte {
	seq := uint64(len(r.ops) + len(r.opOf))
	r.opOf, r.sentAt = append(r.opOf, op), append(r.sentAt, now)
	r.lastSent[op] = now
	return makeTx(seq, r.ops[op][8:])
}

// prefilled notes that every operation went into the pool before the
// cluster started (fixed work).
func (r *retrier) prefilled() {
	r.mu.Lock()
	r.sent, r.pending = len(r.ops), len(r.ops)
	r.mu.Unlock()
}

// resubmitMissing submits every uncommitted operation again and reports
// how many there were. Fixed work calls it once the pool has drained and
// the pipeline has settled, when whatever has not committed is lost.
func (r *retrier) resubmitMissing() int {
	var again [][]byte
	now := time.Since(r.start)
	r.mu.Lock()
	for op := range r.ops {
		if !r.committed[op] {
			again = append(again, r.again(op, now))
		}
	}
	r.mu.Unlock()
	for _, tx := range again {
		r.pool.Submit(0, tx)
	}
	return len(again)
}

// committedBelow reports whether every operation before n has been sent and
// has committed.
func (r *retrier) committedBelow(n int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.low < r.sent && r.committed[r.low] {
		r.low++
	}
	return r.low >= n
}

// waitBelow returns once every operation before n has committed, or at
// deadline.
func (r *retrier) waitBelow(n int, deadline time.Time) {
	for !r.committedBelow(n) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
}

// halt stops what run started.
func (r *retrier) halt() {
	close(r.stop)
	<-r.done
}
