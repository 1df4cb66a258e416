package sim

import (
	"fmt"
	"testing"

	"tetrabft/internal/multishot"
	"tetrabft/internal/obs"
	"tetrabft/internal/types"
)

// sink absorbs deliveries without reacting; used to drive the raw send/pop
// cycle in allocation tests and benchmarks.
type sink struct{ id types.NodeID }

func (s *sink) ID() types.NodeID                               { return s.id }
func (s *sink) Start(types.Env)                                {}
func (s *sink) Deliver(types.Env, types.NodeID, types.Message) {}
func (s *sink) Tick(types.Env, types.TimerID)                  {}

// newSinkRunner builds a runner with n no-op machines and returns it with
// node 0's env.
func newSinkRunner(n int) (*Runner, *env) {
	r := New(Config{Seed: 1})
	for i := 0; i < n; i++ {
		r.Add(&sink{id: types.NodeID(i)})
	}
	return r, r.envs[0]
}

// TestSendZeroAllocs pins the hot path at zero allocations per send: size
// accounting is analytic and the event queue is value-typed, so a steady
// send/pop cycle must never touch the heap.
func TestSendZeroAllocs(t *testing.T) {
	r, env := newSinkRunner(4)
	msg := types.Message(types.VoteMsg{Phase: 2, View: 3, Val: "val-0"})
	// Warm the queue so append never grows mid-measurement.
	env.Send(1, msg)
	r.queue.pop()
	allocs := testing.AllocsPerRun(1000, func() {
		env.Send(1, msg)
		r.queue.pop()
	})
	if allocs != 0 {
		t.Errorf("send/pop cycle allocates %.2f times, want 0", allocs)
	}
}

// TestBroadcastZeroAllocs pins a full n-receiver broadcast (sized once) at
// zero allocations.
func TestBroadcastZeroAllocs(t *testing.T) {
	r, env := newSinkRunner(7)
	msg := types.Message(types.Proposal{View: 1, Val: "val-0"})
	env.Broadcast(msg)
	for r.queue.len() > 0 {
		r.queue.pop()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		env.Broadcast(msg)
		for r.queue.len() > 0 {
			r.queue.pop()
		}
	})
	if allocs != 0 {
		t.Errorf("broadcast/drain cycle allocates %.2f times, want 0", allocs)
	}
}

// TestObsDisabledZeroAllocs is the observability overhead gate: with the
// metrics registry compiled into the send/broadcast path but *disabled*
// (Config.Metrics nil — the default every existing caller gets), the hot
// path must still be 0 allocs/op. The enabled path is pinned too: resolved
// counters are bare atomics, so turning metrics on costs no allocations
// either.
func TestObsDisabledZeroAllocs(t *testing.T) {
	r, env := newSinkRunner(4)
	if r.mSent != nil || r.mDropped != nil {
		t.Fatal("nil Config.Metrics must resolve nil (no-op) counters")
	}
	msg := types.Message(types.VoteMsg{Phase: 2, View: 3, Val: "val-0"})
	env.Broadcast(msg)
	for r.queue.len() > 0 {
		r.queue.pop()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		env.Send(1, msg)
		r.queue.pop()
		env.Broadcast(msg)
		for r.queue.len() > 0 {
			r.queue.pop()
		}
	})
	if allocs != 0 {
		t.Errorf("send/broadcast with disabled metrics allocates %.2f times, want 0", allocs)
	}

	reg := obs.NewRegistry()
	r2 := New(Config{Seed: 1, Metrics: reg})
	for i := 0; i < 4; i++ {
		r2.Add(&sink{id: types.NodeID(i)})
	}
	env2 := r2.envs[0]
	env2.Broadcast(msg)
	for r2.queue.len() > 0 {
		r2.queue.pop()
	}
	allocs = testing.AllocsPerRun(1000, func() {
		env2.Send(1, msg)
		r2.queue.pop()
	})
	if allocs != 0 {
		t.Errorf("send with enabled metrics allocates %.2f times, want 0", allocs)
	}
	if got := reg.Counter("sim_messages_sent_total").Value(); got == 0 {
		t.Error("enabled registry counted no sends")
	}
}

// TestEventQueueOrdering cross-checks the calendar queue, and the oracle,
// against the (at, seq) total order on adversarial rounds: each round pushes
// a pattern, then pops part of the queue. Between rounds nothing orders the
// pops (a push may land behind an earlier pop, as in the allocation tests),
// so order is checked within a round and identity with the oracle across all.
func TestEventQueueOrdering(t *testing.T) {
	var q eventQueue
	var o heapQueue
	var seq uint64
	push := func(at types.Time, timer bool) {
		e := event{at: at, seq: seq, timer: timer}
		q.push(e)
		o.push(e)
		seq++
	}
	rounds := []struct {
		name   string
		pushes func()
		pops   int // -1 = drain
	}{
		{"descending, ascending, duplicates", func() {
			for i := 50; i > 0; i-- {
				push(types.Time(i), false)
			}
			for i := 0; i < 50; i++ {
				push(types.Time(i%7), false)
			}
		}, 60},
		{"far timers and the ring's edge", func() {
			for i := 0; i < 40; i++ {
				push(types.Time(200+i%3), true)
				push(q.base+nearTicks-1, false)
				push(q.base+nearTicks, false)
			}
		}, 70},
		{"behind base", func() {
			for i := 0; i < 30; i++ {
				push(q.base-types.Time(i%5), false)
				push(q.base, false)
			}
		}, -1},
		{"far only, then the ring from the jumped base", func() {
			for i := 0; i < 20; i++ {
				push(types.Time(1000+10*i), true)
			}
		}, 1},
		{"same tick as the far events", func() {
			for i := 0; i < 20; i++ {
				push(types.Time(1000+10*i), false)
				push(q.base+1, false)
			}
		}, -1},
	}
	for _, rd := range rounds {
		rd.pushes()
		prevAt, prevSeq := types.Time(0), uint64(0)
		for i := 0; (rd.pops < 0 || i < rd.pops) && o.len() > 0; i++ {
			want := o.pop()
			ev := q.pop()
			if ev != want {
				t.Fatalf("%s: popped (%d,%d), oracle (%d,%d)", rd.name, ev.at, ev.seq, want.at, want.seq)
			}
			if i > 0 && (ev.at < prevAt || (ev.at == prevAt && ev.seq <= prevSeq)) {
				t.Fatalf("%s: pop order violated: (%d,%d) after (%d,%d)", rd.name, ev.at, ev.seq, prevAt, prevSeq)
			}
			prevAt, prevSeq = ev.at, ev.seq
		}
		if q.len() != o.len() {
			t.Fatalf("%s: %d events left, oracle %d", rd.name, q.len(), o.len())
		}
	}
}

// TestEventQueueZeroAllocs pins a warm calendar cycle at zero allocations:
// n² = 256 events into one bucket, a far timer, and the drain that pops them
// and jumps base to the timer. Emptied buckets keep their capacity.
func TestEventQueueZeroAllocs(t *testing.T) {
	var q eventQueue
	var seq uint64
	cycle := func() {
		for i := 0; i < 256; i++ {
			q.push(event{at: q.base + 1, seq: seq})
			seq++
		}
		q.push(event{at: q.base + 3*nearTicks, seq: seq, timer: true})
		seq++
		for q.len() > 0 {
			q.pop()
		}
	}
	for i := 0; i < nearTicks; i++ { // every bucket and the far heap once
		cycle()
	}
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Errorf("warm push/pop cycle allocates %.2f times, want 0", allocs)
	}
}

// TestMessagesNeverTakeFarPath pins the calendar queue's premise on the
// workload it was built for: in an n=16 tetrabft-multi run with a constant
// delay below W, base follows the clock and every message event lands in the
// ring. With node 15 silent, every slot it leads stalls until the only
// events left are view timers; the view change that follows must land in
// the ring too.
func TestMessagesNeverTakeFarPath(t *testing.T) {
	for _, tc := range []struct {
		delay  types.Duration
		silent bool
	}{{1, false}, {1, true}, {7, true}} {
		r := New(Config{Seed: 1, Delay: ConstantDelay{D: tc.delay}})
		var nodes []*multishot.Node
		for i := 0; i < 16; i++ {
			if tc.silent && i == 15 {
				r.Add(&sink{id: 15})
				continue
			}
			// A pipeline finalizes up to MaxSlot−3.
			n, err := multishot.NewNode(multishot.Config{ID: types.NodeID(i), Nodes: 16, Delta: 10, MaxSlot: 103})
			if err != nil {
				t.Fatal(err)
			}
			nodes = append(nodes, n)
			r.Add(n)
		}
		if err := r.Run(10000, nil); err != nil {
			t.Fatal(err)
		}
		for _, n := range nodes {
			if n.FinalizedSlot() < 100 {
				t.Fatalf("%+v: node %d finalized %d of 100 slots", tc, n.ID(), n.FinalizedSlot())
			}
		}
		if r.queue.farMsgs != 0 {
			t.Errorf("%+v: %d of %d events were messages pushed to the far heap, want 0",
				tc, r.queue.farMsgs, r.Events())
		}
	}
}

// TestDefaultViewTimersStayInRing pins where the view timers go: at the
// default Δ = 10 a multishot view timer is 9Δ = 90 ticks ahead, inside the
// W = 128-tick ring, so an n=16 run, fault-free or with a silent node forcing
// view changes, pushes exactly 0 timers to the far heap (and so never puts
// one in the coalescing map).
func TestDefaultViewTimersStayInRing(t *testing.T) {
	for _, silent := range []bool{false, true} {
		reg := obs.NewRegistry()
		r := New(Config{Seed: 1, Metrics: reg})
		for i := 0; i < 16; i++ {
			if silent && i == 15 {
				r.Add(&sink{id: 15})
				continue
			}
			n, err := multishot.NewNode(multishot.Config{ID: types.NodeID(i), Nodes: 16, MaxSlot: 103})
			if err != nil {
				t.Fatal(err)
			}
			r.Add(n)
		}
		if err := r.Run(10000, nil); err != nil {
			t.Fatal(err)
		}
		fired := reg.Counter("sim_timer_fires_total").Value()
		if fired == 0 {
			t.Fatalf("silent=%v: no view timer fired", silent)
		}
		if r.queue.farTimers != 0 || len(r.armed) != 0 {
			t.Errorf("silent=%v: %d of %d timers went to the far heap (%d left in the map), want 0",
				silent, r.queue.farTimers, fired, len(r.armed))
		}
	}
}

// entries counts the queue's entries: a fan-out entry is one however many
// deliveries it holds.
func (q *eventQueue) entries() int {
	n := len(q.far.ev)
	for i := range q.ring {
		n += len(q.ring[i].ev) - q.ring[i].head
	}
	return n
}

// TestBroadcastOneQueueEntry pins the fan-out: an n=16 constant-delay
// broadcast adds exactly 2 queue entries, the self-delivery and one entry
// for the 15 remote deliveries, which pop in recipient order at the seqs
// 16 separate pushes would have taken.
func TestBroadcastOneQueueEntry(t *testing.T) {
	for _, from := range []int{0, 7, 15} {
		r, _ := newSinkRunner(16)
		r.seq = 100
		r.envs[from].Broadcast(types.Proposal{View: 1, Val: "val-0"})
		if got := r.queue.entries(); got != 2 {
			t.Fatalf("from %d: broadcast to 16 nodes added %d queue entries, want 2", from, got)
		}
		if got := r.queue.len(); got != 16 {
			t.Fatalf("from %d: queue holds %d deliveries, want 16", from, got)
		}
		self := r.queue.pop()
		if self.node != int32(from) || self.at != 0 || self.seq != 100+uint64(from) {
			t.Fatalf("from %d: first pop is (node %d, at %d, seq %d), want the self-delivery", from, self.node, self.at, self.seq)
		}
		for to := 0; to < 16; to++ {
			if to == from {
				continue
			}
			e := r.queue.pop()
			if e.node != int32(to) || e.at != 1 || e.seq != 100+uint64(to) || e.from != int32(from) || e.end != 0 {
				t.Fatalf("from %d: delivery to %d popped as %+v", from, to, e)
			}
		}
		if r.queue.len() != 0 || r.queue.entries() != 0 {
			t.Fatalf("from %d: %d deliveries in %d entries left", from, r.queue.len(), r.queue.entries())
		}
	}
}

// fingerprint summarizes everything observable about a finished run; two
// same-seed runs must produce identical fingerprints (the byte-identical
// determinism guarantee the perf work must preserve).
func fingerprint(r *Runner, n int) string {
	s := fmt.Sprintf("events=%d dropped=%d total=%d;", r.Events(), r.DroppedMessages(), r.TotalSentBytes())
	for i := 0; i < n; i++ {
		id := types.NodeID(i)
		d, ok := r.Decision(id, 0)
		s += fmt.Sprintf("n%d sent=%d recv=%d dec=%v@%d/%v;", i, r.SentBytes(id), r.RecvBytes(id), d.Val, d.At, ok)
	}
	return s
}

// TestSameSeedByteIdentical runs the same seeded configuration twice and
// asserts decisions, byte counters and event counts are identical.
func TestSameSeedByteIdentical(t *testing.T) {
	run := func() string {
		r := New(Config{Seed: 99, Delay: UniformDelay{Min: 1, Max: 9}, GST: 20, DropBeforeGST: 0.4})
		newPingCluster(r, 6, nil)
		if err := r.Run(0, nil); err != nil {
			t.Fatal(err)
		}
		return fingerprint(r, 6)
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("same-seed fingerprints differ:\n%s\n%s", a, b)
	}
}

func BenchmarkSend(b *testing.B) {
	r, env := newSinkRunner(4)
	msg := types.Message(types.VoteMsg{Phase: 2, View: 3, Val: "val-0"})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.Send(1, msg)
		r.queue.pop()
	}
}

func BenchmarkBroadcast(b *testing.B) {
	for _, n := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			r, env := newSinkRunner(n)
			msg := types.Message(types.Proposal{View: 1, Val: "val-0"})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				env.Broadcast(msg)
				for r.queue.len() > 0 {
					r.queue.pop()
				}
			}
		})
	}
}

// BenchmarkEventQueue measures one pop plus one push (ns/op per event) at
// the queue shape of an n=16 multishot run: n² = 256 messages per tick at
// unit delay and n timers per tick armed 9Δ = 90 ticks ahead, ≈ 1.7k queued.
// "heap" is the pre-calendar queue (the oracle) on the same schedule.
func BenchmarkEventQueue(b *testing.B) {
	b.Run("calendar", func(b *testing.B) { benchQueue(b, &eventQueue{}) })
	b.Run("heap", func(b *testing.B) { benchQueue(b, &heapQueue{}) })
}

func benchQueue[Q interface {
	push(event)
	pop() event
}](b *testing.B, q Q) {
	const n, timeout = 16, 90
	var seq uint64
	push := func(at types.Time, timer bool) {
		q.push(event{at: at, seq: seq, timer: timer})
		seq++
	}
	for i := 0; i < n*n; i++ {
		push(1, false)
	}
	for at := types.Time(1); at <= timeout; at++ {
		for i := 0; i < n; i++ {
			push(at, true)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := q.pop()
		if e.timer {
			push(e.at+timeout, true)
		} else {
			push(e.at+1, false)
		}
	}
}

// BenchmarkPingCluster measures a full end-to-end simulation run.
func BenchmarkPingCluster(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := New(Config{Seed: 1})
		newPingCluster(r, 16, nil)
		if err := r.Run(0, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// TestTimerCoalescingBoundsHeap pins the duplicate-arm invariant: arming the
// same (id, instant) k times keeps exactly one queue entry, and the machine
// receives exactly one Tick for it. Distinct ids or instants are unaffected.
func TestTimerCoalescingBoundsHeap(t *testing.T) {
	r, env := newSinkRunner(1)
	for i := 0; i < 1000; i++ {
		env.SetTimer(7, 10)
	}
	if got := r.queue.len(); got != 1 {
		t.Fatalf("1000 duplicate arms grew the heap to %d entries, want 1", got)
	}
	if got := r.coalesced; got != 999 {
		t.Fatalf("coalesced %d timer arms, want 999", got)
	}
	env.SetTimer(8, 10) // different id: new entry
	env.SetTimer(7, 11) // different instant: new entry
	if got := r.queue.len(); got != 3 {
		t.Fatalf("heap has %d entries, want 3", got)
	}
	// Once the coalesced fire is consumed, the id can be armed again.
	ev := r.queue.pop()
	delete(r.armed, timerKey{node: ev.node, id: ev.timerID, at: ev.at})
	env.SetTimer(7, 10)
	if got := r.queue.len(); got != 3 {
		t.Fatalf("re-arm after fire coalesced away: heap has %d entries, want 3", got)
	}
}

// TestTimerZeroAllocs pins the steady-state arm/fire cycle at zero heap
// allocations, for a timer in the ring (its bucket keeps its capacity) and
// one on the far heap (the coalescing map reuses its buckets when the same
// key is inserted and deleted).
func TestTimerZeroAllocs(t *testing.T) {
	for _, d := range []types.Duration{10, 3 * nearTicks} {
		r, env := newSinkRunner(1)
		cycle := func() { // arm, then fire as Run does
			env.SetTimer(1, d)
			ev := r.queue.pop()
			r.now = ev.at
			delete(r.armed, timerKey{node: ev.node, id: ev.timerID, at: ev.at})
		}
		cycle()
		if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
			t.Errorf("timer arm/fire cycle %d ticks ahead allocates %.2f times, want 0", d, allocs)
		}
		want := 0
		if d >= nearTicks {
			want = 1 + 1 + 1000 // the warm cycle, AllocsPerRun's warm-up, its runs
		}
		if r.queue.farTimers != want {
			t.Errorf("%d ticks ahead: %d timers took the far heap, want %d", d, r.queue.farTimers, want)
		}
	}
}

// BenchmarkSetTimerDuplicate measures the duplicate-arm fast path (a scan
// of the timer's bucket, no push).
func BenchmarkSetTimerDuplicate(b *testing.B) {
	r, env := newSinkRunner(1)
	env.SetTimer(1, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.SetTimer(1, 10)
	}
	if r.queue.len() != 1 {
		b.Fatalf("heap grew to %d entries", r.queue.len())
	}
}

// BenchmarkSetTimerCycle measures a full arm/fire cycle including the
// coalescing bookkeeping.
func BenchmarkSetTimerCycle(b *testing.B) {
	r, env := newSinkRunner(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.SetTimer(1, 10)
		ev := r.queue.pop()
		delete(r.armed, timerKey{node: ev.node, id: ev.timerID, at: ev.at})
	}
}
