package scenario

import (
	"bytes"
	"sync"

	"tetrabft/internal/types"
	"tetrabft/internal/workload"
)

// offered is one cluster's offered-load stream: its column of the seeded
// arrival schedule, generated beside the run by a workload.Producer, handed
// out through a cursor. Semantics are those of blockchain.TimedMempool (the
// type for transactions submitted during a run, and the reference offered
// is tested against): a drain at time t sees only what had arrived by t, in
// schedule order, once the producer has got that far, and hands each
// transaction out at most once — whoever leads a slot takes the arrived
// transactions as its block's batch. A drain costs O(batch) whatever the
// backlog: batches are sub-slices of payloads, and nothing is recorded per
// batch: the latency fold finds a committed transaction's arrival where the
// chain's order puts it. Payloads are unique in every schedule the plan
// builds — each carries its index — so a payload names one arrival.
type offered struct {
	mu sync.Mutex // the TCP engines drain from several event loops
	// The column as far as synced: arrival ticks At in schedule order
	// (non-decreasing), Payloads[i] arrived at At[i].
	workload.Reader
	head int // Payloads[:head] have been handed out
	// index maps every payload to its schedule index. It is built only when
	// a chain's transaction is not within scanAhead past the one before it
	// (latencies), which no run whose proposals all commit produces.
	index map[string]int
}

// drain hands out up to max transactions that had arrived by now (max <= 0:
// all of them), nil when there are none. The result's capacity is clipped,
// so appending to it cannot reach the next batch.
func (o *offered) drain(now types.Time, max int) [][]byte {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.Sync(now)
	end := o.head
	for end < len(o.At) && o.At[end] <= now && (max <= 0 || end-o.head < max) {
		end++
	}
	if end == o.head {
		return nil
	}
	out := o.Payloads[o.head:end:end]
	o.head = end
	return out
}

// batchSource adapts the stream to multishot.Config.Batch: a proposal
// carries up to txPerBlock transactions that have arrived by proposal time.
func (o *offered) batchSource(txPerBlock int) func(types.Slot, types.Time) [][]byte {
	return func(_ types.Slot, now types.Time) [][]byte { return o.drain(now, txPerBlock) }
}

// latencies waits for the whole stream, then returns chain's transaction
// count and commit − arrival for each transaction of its committed blocks
// that the stream holds, in chain order.
func (o *offered) latencies(chain []types.Block, commits *commitRecord) (txs int, lats []int64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.SyncAll()
	lats = make([]int64, 0, len(o.At)) // a sample an arrival, unless one commits twice
	next := 0                          // where the next transaction most likely sits
	for _, b := range chain {
		txs += b.NumTxs()
		commit := commits.at(b.Slot)
		for _, tx := range b.Txs {
			if i, ok := o.find(tx, next); ok {
				if next = i + 1; commit >= 0 {
					lats = append(lats, commit-int64(o.At[i]))
				}
			}
		}
	}
	return txs, lats
}

// scanAhead is how far from next find looks before it turns to the full
// index: four lost batches of 64, or 32 of the default 8.
const scanAhead = 256

// find returns tx's schedule index. A chain takes the drained batches in
// drain order, less any whose proposal was lost, so tx is looked for first
// among the scanAhead payloads from next on (next: the index after the
// previous transaction's), byte for byte, and only then in the full index,
// built on first use. The caller holds mu.
func (o *offered) find(tx []byte, next int) (int, bool) {
	for i := next; i < min(next+scanAhead, len(o.Payloads)); i++ {
		if bytes.Equal(o.Payloads[i], tx) {
			return i, true
		}
	}
	if o.index == nil {
		o.index = make(map[string]int, len(o.Payloads))
		for i, p := range o.Payloads {
			o.index[string(p)] = i
		}
	}
	i, ok := o.index[string(tx)]
	return i, ok
}
