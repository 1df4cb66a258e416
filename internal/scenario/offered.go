package scenario

import (
	"bytes"
	"sync"

	"tetrabft/internal/types"
)

// offered is one cluster's offered-load stream: the seeded arrival schedule,
// complete before the run starts and never modified, handed out through a
// cursor. Semantics are those of blockchain.TimedMempool (the type for
// transactions submitted during a run, and the reference offered is tested
// against): a drain at time t sees only what had arrived by t, in schedule
// order, and hands each transaction out at most once — whoever leads a slot
// takes the arrived transactions as its block's batch. A drain costs
// O(batch) whatever the backlog: batches are sub-slices of payloads.
//
// The latency folds find a committed transaction's arrival through batches,
// one entry per batch handed out (latencies): building the stream costs the
// same few allocations whatever its length. Payloads are unique in every
// schedule the plan builds — each carries its index — so a payload names
// one arrival.
type offered struct {
	at       []types.Time // arrival ticks, schedule order (non-decreasing)
	payloads [][]byte     // payloads[i] arrived at at[i]
	mu       sync.Mutex   // the TCP engines drain from several event loops
	head     int          // payloads[:head] have been handed out
	// batches maps the first payload of every batch drain handed out to
	// its schedule index.
	batches map[string]int
	// index maps every payload to its schedule index. It is built only when
	// a committed transaction is neither where its block's batch puts it
	// nor a batch's first (latencies), which no honest run produces.
	index map[string]int
}

// newOffered returns an empty stream with room for n arrivals. A plan
// generates its schedule straight into the stream's columns: Arrive and
// Payload make it a workload.Sink.
func newOffered(n int) *offered {
	return &offered{at: make([]types.Time, 0, n), payloads: make([][]byte, 0, n), batches: make(map[string]int)}
}

func (o *offered) Arrive(at types.Time, _ int, _ string) { o.at = append(o.at, at) }

func (o *offered) Payload(_ int, p []byte) { o.payloads = append(o.payloads, p) }

// drain hands out up to max transactions that had arrived by now (max <= 0:
// all of them), nil when there are none, and records the batch's first
// payload against its schedule index. The result's capacity is clipped, so
// appending to it cannot reach the next batch.
func (o *offered) drain(now types.Time, max int) [][]byte {
	o.mu.Lock()
	defer o.mu.Unlock()
	end := o.head
	for end < len(o.at) && o.at[end] <= now && (max <= 0 || end-o.head < max) {
		end++
	}
	if end == o.head {
		return nil
	}
	out := o.payloads[o.head:end:end]
	o.batches[string(out[0])] = o.head
	o.head = end
	return out
}

// batchSource adapts the stream to multishot.Config.Batch: a proposal
// carries up to txPerBlock transactions that have arrived by proposal time.
func (o *offered) batchSource(txPerBlock int) func(types.Slot, types.Time) [][]byte {
	return func(_ types.Slot, now types.Time) [][]byte { return o.drain(now, txPerBlock) }
}

// latencies appends commit − arrival for each of txs the stream holds, in
// order, skipping the ones it does not. A block that is a drained batch, or
// a run of consecutive ones, is matched position by position from its first
// transaction's batch entry, each payload checked byte for byte; a
// transaction that matches neither its position nor a batch's start is
// looked up in the full index.
func (o *offered) latencies(lats []int64, txs [][]byte, commit int64) []int64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	next := -1 // schedule index the next transaction sits at in a batch
	for _, tx := range txs {
		i, ok := next, next >= 0 && next < len(o.payloads) && bytes.Equal(o.payloads[next], tx)
		if !ok {
			i, ok = o.batches[string(tx)]
		}
		if !ok {
			i, ok = o.lookup(tx)
		}
		if !ok {
			next = -1
			continue
		}
		lats = append(lats, commit-int64(o.at[i]))
		next = i + 1
	}
	return lats
}

// lookup finds tx anywhere in the schedule through the full index, building
// it on first use. The caller holds mu.
func (o *offered) lookup(tx []byte) (int, bool) {
	if o.index == nil {
		o.index = make(map[string]int, len(o.payloads))
		for i, p := range o.payloads {
			o.index[string(p)] = i
		}
	}
	i, ok := o.index[string(tx)]
	return i, ok
}
