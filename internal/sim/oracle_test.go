package sim

// The event queue the simulator shipped before the calendar queue — every
// event in one value-typed 4-ary min-heap ordered by (at, seq) — kept alive
// verbatim as a differential-testing oracle. Its pop sequence is the one
// every golden run was recorded with; queue_test.go drives it and eventQueue
// through identical push/pop/peek schedules and requires identical output.

import "tetrabft/internal/types"

// heapQueue is the pre-calendar eventQueue (peekAt is what its Run read as
// ev[0].at).
type heapQueue struct {
	ev []event
}

func (q *heapQueue) len() int { return len(q.ev) }

func (q *heapQueue) peekAt() types.Time { return q.ev[0].at }

func (q *heapQueue) less(i, j int) bool {
	a, b := &q.ev[i], &q.ev[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (q *heapQueue) push(e event) {
	q.ev = append(q.ev, e)
	i := len(q.ev) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !q.less(i, parent) {
			break
		}
		q.ev[i], q.ev[parent] = q.ev[parent], q.ev[i]
		i = parent
	}
}

func (q *heapQueue) pop() event {
	top := q.ev[0]
	n := len(q.ev) - 1
	q.ev[0] = q.ev[n]
	q.ev[n] = event{} // release the msg reference for the GC
	q.ev = q.ev[:n]
	i := 0
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if q.less(c, min) {
				min = c
			}
		}
		if !q.less(min, i) {
			break
		}
		q.ev[i], q.ev[min] = q.ev[min], q.ev[i]
		i = min
	}
	return top
}
