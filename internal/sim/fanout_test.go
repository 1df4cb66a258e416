package sim

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"testing"

	"tetrabft/internal/multishot"
	"tetrabft/internal/types"
)

// passThrough is an adversary that changes nothing. Its presence alone makes
// every broadcast take the per-recipient pushes of send.
type passThrough struct{}

func (passThrough) Intercept(types.NodeID, types.NodeID, types.Message, types.Time) Verdict {
	return Verdict{}
}

// delivery is one Watch observation.
type delivery struct {
	from, to types.NodeID
	kind     types.Kind
	at       types.Time
}

// runRecord is everything observable about a run that the broadcast path
// could change.
type runRecord struct {
	watched   []delivery
	events    int
	err       string
	dropped   int64
	sent      []int64 // per node, then per kind
	recv      []int64
	decisions map[types.NodeID]map[types.Slot]Decision
}

func record(r *Runner, n int, watched []delivery, err error) runRecord {
	rec := runRecord{watched: watched, events: r.Events(), dropped: r.DroppedMessages(), decisions: make(map[types.NodeID]map[types.Slot]Decision)}
	for _, e := range r.envs {
		if len(e.decisions) > 0 {
			rec.decisions[e.self] = maps.Clone(e.decisions)
		}
	}
	if err != nil {
		rec.err = err.Error()
	}
	for i := 0; i < n; i++ {
		rec.sent = append(rec.sent, r.SentBytes(types.NodeID(i)))
		rec.recv = append(rec.recv, r.RecvBytes(types.NodeID(i)))
	}
	rec.sent = append(rec.sent, r.sentMsgs[:]...)
	return rec
}

// nextEntry returns the event at the head of the queue, or nil when it is
// empty.
func (q *eventQueue) nextEntry() *event {
	if q.len() == 0 {
		return nil
	}
	if b := q.next(); b != nil {
		return &b.ev[b.head]
	}
	return &q.far.ev[0]
}

// midFanOut reports whether the next delivery belongs to a fan-out entry
// that has already handed out at least one.
func (q *eventQueue) midFanOut() bool {
	e := q.nextEntry()
	return e != nil && e.end > 0 && e.node > 0 && !(e.node == 1 && e.from == 0)
}

// fanOutCase is one network of TestBroadcastFanOutMatchesPerRecipient.
type fanOutCase struct {
	name    string
	nodes   int
	delay   DelayModel
	gst     types.Time
	drop    float64
	delta   types.Duration // 0 = 10
	maxSlot types.Slot
	horizon types.Time
	// fans says whether the network's broadcasts take fan-out entries at
	// all: not with zero delay (the remote copies share the self-delivery's
	// instant) nor with delays past the ring.
	fans bool
}

// halt names how a run is cut into Run calls.
type halt int

const (
	haltNone    halt = iota // one Run call
	haltStop                // the stop predicate every 7 events
	haltHorizon             // one tick per Run call, and the stop predicate every 5 events within it
	haltBudget              // the event budgets given, each raised after it runs out
)

// fanOutStats counts what a run's halts met: deliveries handed out by
// fan-out entries, and the event counts at which a halt left the next
// delivery in the middle of one.
type fanOutStats struct {
	fanOuts int
	midAt   []int
}

// runFanOutCase runs tc's multishot cluster under adv, cut into Run calls as
// h says.
func runFanOutCase(t *testing.T, tc fanOutCase, adv Adversary, h halt, budgets []int) (runRecord, fanOutStats) {
	t.Helper()
	r := New(Config{Seed: 7, Delay: tc.delay, GST: tc.gst, DropBeforeGST: tc.drop, Adversary: adv})
	for i := 0; i < tc.nodes; i++ {
		n, err := multishot.NewNode(multishot.Config{ID: types.NodeID(i), Nodes: tc.nodes, Delta: tc.delta, MaxSlot: tc.maxSlot})
		if err != nil {
			t.Fatal(err)
		}
		r.Add(n)
	}
	var watched []delivery
	var st fanOutStats
	r.Watch = func(from, to types.NodeID, msg types.Message, at types.Time) {
		watched = append(watched, delivery{from, to, msg.Kind(), at})
	}
	// The queue is empty until the first Run call starts the machines.
	pending := func() bool { return !r.started || r.queue.len() > 0 && r.queue.peekAt() <= tc.horizon }
	// every stops the run after k more events. The stop is exact: a Run
	// call the predicate ends must end at the target, mid-fan-out too.
	target := -1
	every := func(k int) func() bool {
		target = r.Events() + k
		return func() bool {
			if e := r.queue.nextEntry(); e != nil && e.end > 0 {
				st.fanOuts++
			}
			return r.Events() >= target
		}
	}
	overran := func() {
		if r.Events() > target {
			t.Fatalf("%s: the stop predicate held at event %d, but the run went on to event %d", tc.name, target, r.Events())
		}
	}
	var err error
	switch h {
	case haltNone:
		err = r.Run(tc.horizon, nil)
	case haltStop:
		for err == nil && pending() {
			err = r.Run(tc.horizon, every(7))
			overran()
			if r.queue.midFanOut() {
				st.midAt = append(st.midAt, r.Events())
			}
		}
	case haltHorizon:
		for at := types.Time(1); err == nil && at <= tc.horizon && pending(); {
			err = r.Run(at, every(5))
			overran()
			if r.queue.midFanOut() {
				st.midAt = append(st.midAt, r.Events())
				// A horizon before the entry's instant delivers nothing.
				if before := r.Events(); r.now > 1 {
					if err := r.Run(r.now-1, nil); err != nil || r.Events() != before {
						t.Fatalf("%s: a horizon behind the clock delivered %d events (err %v)", tc.name, r.Events()-before, err)
					}
				}
			}
			if r.queue.len() > 0 && r.queue.peekAt() > at {
				at++
			}
		}
	case haltBudget:
		// The run that exhausts a budget pops the event past it and
		// delivers it to no one; the error takes its place in the stream.
		for _, budget := range budgets {
			r.cfg.EventBudget = budget
			runErr := r.Run(tc.horizon, nil)
			if !errors.Is(runErr, ErrEventBudget) || r.Events() != budget+1 {
				t.Fatalf("%s: budget %d: error %v at event %d", tc.name, budget, runErr, r.Events())
			}
			watched = append(watched, delivery{from: -1, to: -1, at: types.Time(r.Events())})
		}
		r.cfg.EventBudget = 5_000_000
		err = r.Run(tc.horizon, nil)
	}
	return record(r, tc.nodes, watched, err), st
}

// TestBroadcastFanOutMatchesPerRecipient runs each network twice, once with
// no adversary (broadcasts take fan-out entries where they can) and once
// with a pass-through adversary (every broadcast takes one push per
// recipient), and requires identical Watch streams, event counts, byte
// counters, message counts and decisions. Each network also runs cut into
// many Run calls — by the stop predicate, by one-tick horizons and by event
// budgets — so that runs halt partway through a fan-out entry and resume.
func TestBroadcastFanOutMatchesPerRecipient(t *testing.T) {
	cases := []fanOutCase{
		{name: "n=4 constant", nodes: 4, delay: ConstantDelay{D: 1}, maxSlot: 30, horizon: 2000, fans: true},
		{name: "n=16 constant", nodes: 16, delay: ConstantDelay{D: 1}, maxSlot: 20, horizon: 2000, fans: true},
		{name: "n=16 constant 3", nodes: 16, delay: ConstantDelay{D: 3}, maxSlot: 12, horizon: 2000, fans: true},
		{name: "n=4 zero delay", nodes: 4, delay: ConstantDelay{D: 0}, maxSlot: 12, horizon: 2000},
		{name: "n=4 beyond the ring", nodes: 4, delay: ConstantDelay{D: nearTicks + 2}, delta: 150, maxSlot: 8, horizon: 8000},
		{name: "n=4 uniform", nodes: 4, delay: UniformDelay{Min: 1, Max: 2}, maxSlot: 30, horizon: 2000, fans: true},
		{name: "n=16 uniform", nodes: 16, delay: UniformDelay{Min: 1, Max: 3}, maxSlot: 12, horizon: 2000},
		{name: "n=4 per-link", nodes: 4, delay: PerLinkDelay{Default: 1, Links: map[[2]types.NodeID]types.Duration{{0, 2}: 4, {3, 1}: 2}},
			maxSlot: 30, horizon: 2000, fans: true},
		{name: "n=16 per-link", nodes: 16, delay: PerLinkDelay{Default: 2, Links: map[[2]types.NodeID]types.Duration{{5, 9}: 7, {9, 5}: 1}},
			maxSlot: 12, horizon: 2000, fans: true},
		{name: "n=4 GST", nodes: 4, delay: ConstantDelay{D: 2}, gst: 60, drop: 0.3, maxSlot: 20, horizon: 4000, fans: true},
		{name: "n=16 GST", nodes: 16, delay: ConstantDelay{D: 1}, gst: 40, drop: 0.2, maxSlot: 10, horizon: 4000, fans: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, _ := runFanOutCase(t, tc, passThrough{}, haltNone, nil)
			if want.err != "" || len(want.decisions) != tc.nodes {
				t.Fatalf("reference run: err %q, %d of %d nodes decided", want.err, len(want.decisions), tc.nodes)
			}
			// Budgets where the fan-out run's next delivery is mid-entry,
			// so the delivery the budget error swallows comes from one.
			_, probe := runFanOutCase(t, tc, nil, haltStop, nil)
			if tc.fans && (probe.fanOuts == 0 || len(probe.midAt) < 3) {
				t.Fatalf("%d deliveries from fan-out entries, %d halts mid-entry: the case no longer covers them", probe.fanOuts, len(probe.midAt))
			}
			budgets := []int{want.events / 4, want.events / 2, want.events * 3 / 4}
			if tc.fans {
				budgets = []int{probe.midAt[0], probe.midAt[len(probe.midAt)/2], probe.midAt[len(probe.midAt)-1]}
			}
			for _, h := range []halt{haltNone, haltStop, haltHorizon, haltBudget} {
				fan, _ := runFanOutCase(t, tc, nil, h, budgets)
				per, _ := runFanOutCase(t, tc, passThrough{}, h, budgets)
				if err := sameRun(fan, per); err != nil {
					t.Errorf("halt %d: fan-out and per-recipient runs differ: %v", h, err)
				}
				// A budget error swallows a delivery, which changes the run
				// from there on; every other cut must not.
				if err := sameRun(fan, want); h != haltBudget && err != nil {
					t.Errorf("halt %d: run differs from the uncut reference: %v", h, err)
				}
			}
		})
	}
}

// broadcastCounter wraps a machine and counts the broadcasts it makes.
type broadcastCounter struct {
	types.Machine
	sent *int
}

func (m broadcastCounter) Start(env types.Env) { m.Machine.Start(countingEnv{env, m.sent}) }

func (m broadcastCounter) Deliver(env types.Env, from types.NodeID, msg types.Message) {
	m.Machine.Deliver(countingEnv{env, m.sent}, from, msg)
}

func (m broadcastCounter) Tick(env types.Env, id types.TimerID) {
	m.Machine.Tick(countingEnv{env, m.sent}, id)
}

type countingEnv struct {
	types.Env
	sent *int
}

func (e countingEnv) Broadcast(msg types.Message) {
	*e.sent++
	e.Env.Broadcast(msg)
}

// TestFanOutOnePopPerEntry pins the in-place fan-out on the n = 16
// multishot pipeline, with Watch set: every broadcast is a self-delivery and
// one fan-out entry of 15 deliveries, and the queue's head is taken at most
// once per entry, not once per recipient (entries that follow each other at
// one tick share one), so a run of E events and B broadcasts pops at most
// E − 14·B times. Watch still sees every delivery.
func TestFanOutOnePopPerEntry(t *testing.T) {
	const n = 16
	r := New(Config{Seed: 1})
	broadcasts := 0
	for i := 0; i < n; i++ {
		node, err := multishot.NewNode(multishot.Config{ID: types.NodeID(i), Nodes: n, Delta: 10, MaxSlot: 60})
		if err != nil {
			t.Fatal(err)
		}
		r.Add(broadcastCounter{node, &broadcasts})
	}
	watched := 0
	r.Watch = func(types.NodeID, types.NodeID, types.Message, types.Time) { watched++ }
	pops := 0
	popped = func() { pops++ }
	defer func() { popped = nil }()
	if err := r.Run(2000, nil); err != nil {
		t.Fatal(err)
	}
	if r.DecidedCount(50) != n {
		t.Fatalf("%d of %d nodes decided slot 50", r.DecidedCount(50), n)
	}
	var sent int64
	for k := range r.sentMsgs {
		sent += r.sentMsgs[k]
	}
	if sent != int64(n*broadcasts) || watched+r.queue.len() != int(sent) {
		t.Fatalf("%d broadcasts, %d messages sent, %d watched and %d queued: not all broadcasts", broadcasts, sent, watched, r.queue.len())
	}
	t.Logf("%d events, %d broadcasts, %d pops", r.Events(), broadcasts, pops)
	if most := r.Events() - (n-2)*broadcasts; pops > most {
		t.Errorf("%d events and %d broadcasts took %d pops, want at most %d (one per fan-out entry)", r.Events(), broadcasts, pops, most)
	}
}

// sameRun reports the first difference between two run records.
func sameRun(a, b runRecord) error {
	switch {
	case a.err != b.err:
		return fmt.Errorf("error %q vs %q", a.err, b.err)
	case a.events != b.events:
		return fmt.Errorf("events %d vs %d", a.events, b.events)
	case a.dropped != b.dropped:
		return fmt.Errorf("dropped %d vs %d", a.dropped, b.dropped)
	case !reflect.DeepEqual(a.sent, b.sent) || !reflect.DeepEqual(a.recv, b.recv):
		return fmt.Errorf("byte or message counters differ")
	case !reflect.DeepEqual(a.decisions, b.decisions):
		return fmt.Errorf("decisions differ")
	}
	for i := range min(len(a.watched), len(b.watched)) {
		if a.watched[i] != b.watched[i] {
			return fmt.Errorf("Watch %d: %+v vs %+v", i, a.watched[i], b.watched[i])
		}
	}
	if len(a.watched) != len(b.watched) {
		return fmt.Errorf("Watch saw %d vs %d deliveries", len(a.watched), len(b.watched))
	}
	return nil
}

// mapRule is the timer-coalescing rule of the simulator before ring timers,
// on the heap oracle: every pending timer in one map, removed when it fires.
type mapRule struct {
	q         heapQueue
	armed     map[timerKey]struct{}
	seq       uint64
	now       types.Time
	coalesced int64
	fires     []timerKey
}

func (m *mapRule) arm(node int32, id types.TimerID, d types.Duration) {
	key := timerKey{node: node, id: id, at: m.now + types.Time(d)}
	if _, dup := m.armed[key]; dup {
		m.coalesced++
		return
	}
	m.armed[key] = struct{}{}
	m.q.push(event{at: key.at, seq: m.seq, node: node, timer: true, timerID: id})
	m.seq++
}

func (m *mapRule) step() {
	e := m.q.pop()
	m.now = e.at
	key := timerKey{node: e.node, id: e.timerID, at: e.at}
	delete(m.armed, key)
	m.fires = append(m.fires, key)
}

// timerLog records the fires its machine sees.
type timerLog struct {
	id    types.NodeID
	fires *[]timerKey
}

func (m *timerLog) ID() types.NodeID                               { return m.id }
func (m *timerLog) Start(types.Env)                                {}
func (m *timerLog) Deliver(types.Env, types.NodeID, types.Message) {}
func (m *timerLog) Tick(env types.Env, id types.TimerID) {
	*m.fires = append(*m.fires, timerKey{node: int32(m.id), id: id, at: env.Now()})
}

// TestTimerCoalescingMatchesMap drives random arm sequences through the
// runner and through mapRule and requires the same fires, in the same
// order, and the same coalesced count. Arms repeat an id at one instant and
// at different ones, land in the ring and past it, and re-arm a timer that
// was armed far for its same instant once that instant is inside the ring.
func TestTimerCoalescingMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const nodes = 3
		var fires []timerKey
		r := New(Config{Seed: seed})
		for i := 0; i < nodes; i++ {
			r.Add(&timerLog{id: types.NodeID(i), fires: &fires})
		}
		if err := r.Run(0, nil); err != nil { // Start, on an empty queue
			t.Fatal(err)
		}
		ref := mapRule{armed: make(map[timerKey]struct{})}
		var farArmed []timerKey // far-bound arms, for re-arming once in the ring
		delays := []types.Duration{0, 1, 5, 90, nearTicks - 1, nearTicks, nearTicks + 1, 200, 300}
		rearms := 0
		for op := 0; op < 3000; op++ {
			switch x := rng.Intn(10); {
			case x < 5:
				node, id := int32(rng.Intn(nodes)), types.TimerID(1+rng.Intn(3))
				d := delays[rng.Intn(len(delays))]
				if !r.queue.inRing(r.now + types.Time(d)) {
					farArmed = append(farArmed, timerKey{node: node, id: id, at: r.now + types.Time(d)})
				}
				r.envs[node].SetTimer(id, d)
				ref.arm(node, id, d)
			case x < 7 && len(farArmed) > 0:
				k := farArmed[rng.Intn(len(farArmed))]
				if k.at < r.now {
					continue
				}
				if r.queue.inRing(k.at) {
					rearms++
				}
				r.envs[k.node].SetTimer(k.id, types.Duration(k.at-r.now))
				ref.arm(k.node, k.id, types.Duration(k.at-r.now))
			default:
				if ref.q.len() == 0 {
					continue
				}
				before := r.Events()
				if err := r.Run(0, func() bool { return r.Events() > before }); err != nil {
					t.Fatal(err)
				}
				ref.step()
				if r.now != ref.now {
					t.Fatalf("seed %d op %d: clock %d, map rule %d", seed, op, r.now, ref.now)
				}
			}
		}
		if err := r.Run(0, nil); err != nil {
			t.Fatal(err)
		}
		for ref.q.len() > 0 {
			ref.step()
		}
		if !reflect.DeepEqual(fires, ref.fires) {
			t.Fatalf("seed %d: %d fires, map rule %d; they first differ at %d", seed, len(fires), len(ref.fires), firstDiff(fires, ref.fires))
		}
		if r.coalesced != ref.coalesced {
			t.Fatalf("seed %d: coalesced %d, map rule %d", seed, r.coalesced, ref.coalesced)
		}
		if rearms == 0 || ref.coalesced == 0 {
			t.Fatalf("seed %d: %d in-ring re-arms of far timers, %d coalesced: the sequence covers too little", seed, rearms, ref.coalesced)
		}
		if len(r.armed) != 0 {
			t.Fatalf("seed %d: %d keys left in armed after every timer fired", seed, len(r.armed))
		}
	}
}

func firstDiff(a, b []timerKey) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}
