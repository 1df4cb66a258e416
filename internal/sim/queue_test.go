package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"tetrabft/internal/types"
)

// queueOps is the number of operations checkQueueOps knows; a schedule byte
// b is operation b % queueOps with argument b / queueOps.
const queueOps = 9

// checkQueueOps runs one schedule of queue operations against eventQueue and
// the heapQueue oracle and fails at the first pop, peek or length on which
// they differ. Each byte is one operation k with an argument a ∈ [0, 28]
// (see queueOps). now is the clock as Run keeps it: only op 5 advances it,
// so ops 6 and 7 (pops that leave it, as the allocation tests do) make later
// pushes land behind the ring's base.
//
//	0  push a message at now + a%2 (same-tick bursts, unit delay)
//	1  push a message at now + a (inside the ring)
//	2  push a message at now + W - 16 + a (straddling the ring's end)
//	3  push a timer at now + W + 37a (far)
//	4  push a message at now - 1 - a (behind base)
//	5  pop, advancing now to the event's time (Run)
//	6  pop, leaving now
//	7  a%4 == 0: drain, advancing now (empty-ring jumps); else peek (horizon)
//	8  broadcast to 2 + a%15 nodes from node 3a mod n, the remote copies at
//	   now + a%3 (see broadcastSynced): a self-delivery plus one fan-out
//	   entry when that instant is after now and in the ring, one push per
//	   recipient otherwise. The oracle always gets one push per recipient.
func checkQueueOps(t testing.TB, ops []byte) {
	t.Helper()
	var q eventQueue
	var o heapQueue
	var seq uint64
	var now types.Time
	push := func(at types.Time, timer bool) {
		e := event{at: at, seq: seq, node: int32(seq % 16), timer: timer}
		seq++
		q.push(e)
		o.push(e)
	}
	broadcast := func(at types.Time, n, from int32) {
		s0 := seq
		seq += uint64(n)
		fan := at > now && q.inRing(at)
		for i := int32(0); i < n; i++ {
			e := event{at: at, seq: s0 + uint64(i), node: i, from: from}
			if i == from {
				e.at = now
			}
			o.push(e)
			if !fan || i == from {
				q.push(e)
			}
		}
		if fan {
			first := int32(0)
			if from == 0 {
				first = 1
			}
			q.pushFanOut(event{at: at, seq: s0 + uint64(first), node: first, from: from, end: n}, int(n-1))
		}
	}
	pop := func(i int) (event, bool) {
		if q.len() != o.len() {
			t.Fatalf("op %d: len %d, oracle %d", i, q.len(), o.len())
		}
		if o.len() == 0 {
			return event{}, false
		}
		got, want := q.pop(), o.pop()
		if got != want {
			t.Fatalf("op %d: popped (at %d, seq %d, node %d), oracle (at %d, seq %d, node %d)",
				i, got.at, got.seq, got.node, want.at, want.seq, want.node)
		}
		return got, true
	}
	for i, b := range ops {
		a := types.Time(b / queueOps)
		switch b % queueOps {
		case 0:
			push(now+a%2, false)
		case 1:
			push(now+a, false)
		case 2:
			push(now+nearTicks-16+a, false)
		case 3:
			push(now+nearTicks+37*a, true)
		case 4:
			push(now-1-a, false)
		case 5:
			if e, ok := pop(i); ok {
				now = e.at
			}
		case 6:
			pop(i)
		case 7:
			if a%4 == 0 {
				for e, ok := pop(i); ok; e, ok = pop(i) {
					now = e.at
				}
			} else if o.len() > 0 {
				if got, want := q.peekAt(), o.peekAt(); got != want {
					t.Fatalf("op %d: peekAt %d, oracle %d", i, got, want)
				}
			}
		case 8:
			n := int32(2 + a%15)
			broadcast(now+a%3, n, int32(3*a)%n)
		}
	}
	for _, ok := pop(len(ops)); ok; _, ok = pop(len(ops)) {
	}
}

// queueSchedule draws a random schedule; weights[k] is the relative
// frequency of op k.
func queueSchedule(rng *rand.Rand, n int, weights [queueOps]int) []byte {
	total := 0
	for _, w := range weights {
		total += w
	}
	ops := make([]byte, n)
	for i := range ops {
		x, op := rng.Intn(total), 0
		for x >= weights[op] {
			x -= weights[op]
			op++
		}
		ops[i] = queueOp(op, rng.Intn(256/queueOps))
	}
	return ops
}

// queueOp encodes operation op with argument a as a schedule byte.
func queueOp(op, a int) byte { return byte(op + queueOps*a) }

// queueProfiles are the op mixes of the randomized differential: the
// simulator's own shape (unit-delay traffic and broadcasts plus far timers,
// popped as Run pops), same-tick bursts, a far-heavy mix, pops that leave
// the clock (so pushes fall behind base), broadcasts popped partway by
// interleaved pushes and peeks, and everything at once.
var queueProfiles = [][queueOps]int{
	{30, 5, 0, 2, 0, 30, 0, 1, 10},
	{40, 0, 0, 0, 0, 5, 0, 1, 0},
	{5, 5, 10, 20, 0, 20, 0, 3, 2},
	{10, 10, 2, 2, 10, 5, 20, 3, 5},
	{5, 2, 0, 2, 2, 15, 15, 6, 20},
	{5, 5, 5, 5, 5, 5, 5, 5, 5},
}

// TestEventQueueDifferential compares eventQueue with the oracle on random
// interleavings of push, pop and peekAt.
func TestEventQueueDifferential(t *testing.T) {
	for p, weights := range queueProfiles {
		for seed := int64(1); seed <= 40; seed++ {
			rng := rand.New(rand.NewSource(seed*100 + int64(p)))
			ops := queueSchedule(rng, 4000, weights)
			t.Run(fmt.Sprintf("profile=%d/seed=%d", p, seed), func(t *testing.T) { checkQueueOps(t, ops) })
		}
	}
}

// FuzzEventQueue runs the differential harness on arbitrary schedules.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{queueOp(0, 0), queueOp(0, 0), queueOp(0, 1), queueOp(5, 0), queueOp(5, 0), queueOp(5, 0)})
	f.Add([]byte{queueOp(3, 0), queueOp(3, 28), queueOp(0, 0), queueOp(5, 0), queueOp(6, 0), queueOp(4, 0),
		queueOp(7, 1), queueOp(5, 0), queueOp(5, 0), queueOp(7, 0)})
	f.Add([]byte{queueOp(8, 16), queueOp(5, 0), queueOp(5, 0), queueOp(0, 1), queueOp(8, 1),
		queueOp(7, 1), queueOp(6, 0), queueOp(8, 4), queueOp(5, 0), queueOp(7, 0)})
	for p, weights := range queueProfiles {
		f.Add(queueSchedule(rand.New(rand.NewSource(int64(p))), 300, weights))
	}
	f.Fuzz(func(t *testing.T, ops []byte) { checkQueueOps(t, ops) })
}
