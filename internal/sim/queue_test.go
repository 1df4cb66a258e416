package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"tetrabft/internal/types"
)

// checkQueueOps runs one schedule of queue operations against eventQueue and
// the heapQueue oracle and fails at the first pop, peek or length on which
// they differ. Each byte is one operation: the low three bits pick it, the
// high five are its argument a ∈ [0, 32). now is the clock as Run keeps it:
// only op 5 advances it, so ops 6 and 7 (pops that leave it, as the
// allocation tests do) make later pushes land behind the ring's base.
//
//	0  push a message at now + a%2 (same-tick bursts, unit delay)
//	1  push a message at now + a (inside the ring)
//	2  push a message at now + W - 16 + a (straddling the ring's end)
//	3  push a timer at now + W + 37a (far)
//	4  push a message at now - 1 - a (behind base)
//	5  pop, advancing now to the event's time (Run)
//	6  pop, leaving now
//	7  a%4 == 0: drain, advancing now (empty-ring jumps); else peek (horizon)
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
	pop := func(i int) (event, bool) {
		if q.len() != o.len() {
			t.Fatalf("op %d: len %d, oracle %d", i, q.len(), o.len())
		}
		if o.len() == 0 {
			return event{}, false
		}
		got, want := q.pop(), o.pop()
		if got != want {
			t.Fatalf("op %d: popped (at %d, seq %d), oracle (at %d, seq %d)", i, got.at, got.seq, want.at, want.seq)
		}
		return got, true
	}
	for i, b := range ops {
		a := types.Time(b >> 3)
		switch b & 7 {
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
		}
	}
	for _, ok := pop(len(ops)); ok; _, ok = pop(len(ops)) {
	}
}

// queueSchedule draws a random schedule; weights[k] is the relative
// frequency of op k.
func queueSchedule(rng *rand.Rand, n int, weights [8]int) []byte {
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
		ops[i] = byte(op) | byte(rng.Intn(32))<<3
	}
	return ops
}

// queueProfiles are the op mixes of the randomized differential: the
// simulator's own shape (unit-delay traffic plus far timers, popped as Run
// pops), same-tick bursts, a far-heavy mix, pops that leave the clock (so
// pushes fall behind base), and everything at once.
var queueProfiles = [][8]int{
	{30, 5, 0, 2, 0, 30, 0, 1},
	{40, 0, 0, 0, 0, 5, 0, 1},
	{5, 5, 10, 20, 0, 20, 0, 3},
	{10, 10, 2, 2, 10, 5, 20, 3},
	{5, 5, 5, 5, 5, 5, 5, 5},
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
	f.Add([]byte{0, 0, 8, 5, 5, 5})
	f.Add([]byte{3, 3 | 31<<3, 0, 5, 6, 4, 7 | 1<<3, 5, 5, 7})
	for p, weights := range queueProfiles {
		f.Add(queueSchedule(rand.New(rand.NewSource(int64(p))), 300, weights))
	}
	f.Fuzz(func(t *testing.T, ops []byte) { checkQueueOps(t, ops) })
}
