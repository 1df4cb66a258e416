package scenario

import (
	"sync"

	"tetrabft/internal/types"
	"tetrabft/internal/workload"
)

// offered is one cluster's offered-load stream: the seeded arrival schedule,
// complete before the run starts and never modified, handed out through a
// cursor. Semantics are those of blockchain.TimedMempool (the type for
// transactions submitted during a run, and the reference offered is tested
// against): a drain at time t sees only what had arrived by t, in schedule
// order, and hands each transaction out at most once — whoever leads a slot
// takes the arrived transactions as its block's batch. A drain costs
// O(batch) whatever the backlog: batches are sub-slices of payloads.
type offered struct {
	at       []types.Time          // arrival ticks, schedule order (non-decreasing)
	payloads [][]byte              // payloads[i] arrived at at[i]
	arrivals map[string]types.Time // payload → arrival tick, for the latency folds
	mu       sync.Mutex            // the TCP engines drain from several event loops
	head     int                   // payloads[:head] have been handed out
}

func newOffered(sched []workload.Arrival) *offered {
	n := len(sched)
	o := &offered{at: make([]types.Time, n), payloads: make([][]byte, n), arrivals: make(map[string]types.Time, n)}
	for i, a := range sched {
		o.at[i], o.payloads[i] = a.At, a.Payload
		o.arrivals[string(a.Payload)] = a.At
	}
	return o
}

// offeredLoad is an unsharded run's stream (empty unless TxCount is set).
func (p *plan) offeredLoad() *offered { return newOffered(p.offeredSchedule(p.sc.Workload.TxCount, 1)) }

// drain hands out up to max transactions that had arrived by now (max <= 0:
// all of them), nil when there are none. The result's capacity is clipped,
// so appending to it cannot reach the next batch.
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
	o.head = end
	return out
}

// batchSource adapts the stream to multishot.Config.Batch: a proposal
// carries up to txPerBlock transactions that have arrived by proposal time.
func (o *offered) batchSource(txPerBlock int) func(types.Slot, types.Time) [][]byte {
	return func(_ types.Slot, now types.Time) [][]byte { return o.drain(now, txPerBlock) }
}
