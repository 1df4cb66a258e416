// Package sim is a deterministic discrete-event network simulator for
// message-passing protocols.
//
// The paper states every latency result in message delays under partial
// synchrony (an unknown GST before which messages may be lost, after which
// every message arrives within Δ). The simulator reproduces exactly that
// model with a virtual clock: with the unit delay model, decision
// timestamps read directly as the paper's "message delays". It also
// accounts every byte that crosses the network using the shared wire
// encoding, which is how the communication column of Table 1 is measured.
//
// Runs are fully deterministic given a seed: events pop in (time, sequence
// number) order and all randomness flows from one seeded source.
//
// The event queue is a calendar queue (see eventQueue): a ring of 128
// per-tick FIFO buckets starting at the current tick, where nearly every
// event lands (messages and the default 9Δ view timers), and a 4-ary heap
// for events 128 or more ticks ahead (long timers, large delays, GST) or
// behind the ring. Push and pop are O(1) for ring events; the pop order is
// exactly (time, sequence number), the order of a single heap, so replacing
// the heap changed no simulation output. A broadcast whose remote deliveries
// share one instant is one fan-out entry, not one entry per recipient, and
// Run hands its deliveries out in place, without a pop per recipient.
//
// Nodes are indices inside and NodeIDs at the API. The runner keeps one slot
// per machine in Add order, and an event names its destination by slot
// index, so delivering an event or a broadcast hashes nothing. A NodeID is
// looked up only by Add, by a unicast Send and by the getters; every
// callback (Watch, Adversary, DelayModel) and every getter speaks NodeIDs.
package sim

import (
	"errors"
	"fmt"
	"iter"
	"maps"
	"math/rand"
	"slices"

	"tetrabft/internal/obs"
	"tetrabft/internal/types"
)

// ErrEventBudget reports that a run exceeded its event budget, which almost
// always means a protocol bug created a message storm or a timer loop.
var ErrEventBudget = errors.New("sim: event budget exhausted")

// DelayModel produces per-message network delays.
type DelayModel interface {
	// Delay returns the in-flight time for a message from -> to.
	Delay(rng *rand.Rand, from, to types.NodeID) types.Duration
}

// ConstantDelay delays every message by a fixed amount. With D = 1 the
// simulator measures latency in message delays, the paper's currency.
type ConstantDelay struct {
	D types.Duration
}

// Delay implements DelayModel.
func (c ConstantDelay) Delay(*rand.Rand, types.NodeID, types.NodeID) types.Duration { return c.D }

// UniformDelay draws delays uniformly from [Min, Max].
type UniformDelay struct {
	Min, Max types.Duration
}

// Delay implements DelayModel.
func (u UniformDelay) Delay(rng *rand.Rand, _, _ types.NodeID) types.Duration {
	if u.Max <= u.Min {
		return u.Min
	}
	return u.Min + types.Duration(rng.Int63n(int64(u.Max-u.Min)+1))
}

// PerLinkDelay models a geographically skewed cluster: each directed link
// has its own fixed delay, defaulting to Default for unlisted links. Useful
// for latency experiments where one replica sits far from the rest.
type PerLinkDelay struct {
	Default types.Duration
	Links   map[[2]types.NodeID]types.Duration
}

// Delay implements DelayModel.
func (p PerLinkDelay) Delay(_ *rand.Rand, from, to types.NodeID) types.Duration {
	if d, ok := p.Links[[2]types.NodeID{from, to}]; ok {
		return d
	}
	return p.Default
}

// Verdict is an adversary's ruling on one in-flight message.
type Verdict struct {
	// Drop discards the message entirely.
	Drop bool
	// Replace substitutes the delivered message when non-nil.
	Replace types.Message
	// ExtraDelay is added on top of the network delay.
	ExtraDelay types.Duration
}

// Adversary inspects and manipulates in-flight traffic (message-level
// Byzantine power beyond what Byzantine Machines already provide).
type Adversary interface {
	Intercept(from, to types.NodeID, msg types.Message, now types.Time) Verdict
}

// Config parameterizes a simulation run.
type Config struct {
	// Seed drives all randomness. Same seed + same machines = same run.
	Seed int64
	// Delay is the post-GST delay model. Defaults to ConstantDelay{1}.
	Delay DelayModel
	// GST is the global stabilization time. Messages sent before GST are
	// dropped with probability DropBeforeGST; survivors are delivered at
	// max(send time, GST) plus a sampled delay. Zero means synchronous
	// from the start.
	GST types.Time
	// DropBeforeGST is the pre-GST loss probability in [0, 1].
	DropBeforeGST float64
	// Adversary optionally filters every network message. Nil allows all.
	Adversary Adversary
	// EventBudget caps processed events (0 = default 5,000,000).
	EventBudget int
	// Metrics optionally counts hot-path activity (messages, drops,
	// events, timer coalescing). Nil — the default — costs one nil check
	// per event: the send/broadcast/timer paths stay 0 allocs/op, which
	// the perf tests pin with obs compiled in.
	Metrics *obs.Registry
}

// Decision records one node's decision for one slot.
type Decision struct {
	Val types.Value
	At  types.Time
}

// Runner executes a set of Machines against the simulated network.
//
// envs holds one slot per machine in Add order (see env): the machine, its
// byte counters and its decisions. Events address a node by its index in
// envs; byID maps a NodeID to its slot and is consulted only by Add, a
// unicast Send and the NodeID-keyed getters.
type Runner struct {
	cfg  Config
	rng  *rand.Rand
	envs []*env
	byID map[types.NodeID]*env

	queue   eventQueue
	seq     uint64
	now     types.Time
	events  int
	started bool // machines Started (first Run call)

	// armed tracks the pending timer events pushed to the far heap, so
	// that re-arming the same timer for the same instant coalesces into one
	// queue entry instead of growing the queue (see env.SetTimer); a timer
	// in the ring is found in its tick's bucket instead. Keys are removed
	// when the event fires.
	armed     map[timerKey]struct{}
	coalesced int64

	// delays is Broadcast's scratch: the delay drawn for each recipient.
	delays []types.Duration
	// recvAll is the bytes every node received in synced broadcasts (see
	// broadcastSynced and RecvBytes).
	recvAll int64

	sentMsgs [256]int64 // by types.Kind
	dropped  int64

	// Watch, when non-nil, observes every delivered message (after the
	// adversary). Used by invariant monitors in tests.
	Watch func(from, to types.NodeID, msg types.Message, at types.Time)

	// Pre-resolved metric instruments (nil when Config.Metrics is nil;
	// nil instruments are no-ops, keeping the hot path alloc-free).
	mSent      *obs.Counter
	mDropped   *obs.Counter
	mEvents    *obs.Counter
	mTimers    *obs.Counter
	mCoalesced *obs.Counter
}

// New creates a runner with the given configuration.
func New(cfg Config) *Runner {
	if cfg.Delay == nil {
		cfg.Delay = ConstantDelay{D: 1}
	}
	if cfg.EventBudget == 0 {
		cfg.EventBudget = 5_000_000
	}
	r := &Runner{
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		byID:  make(map[types.NodeID]*env, 16),
		armed: make(map[timerKey]struct{}, 64),
	}
	r.queue.far.ev = make([]event, 0, 64)
	r.mSent = cfg.Metrics.Counter("sim_messages_sent_total")
	r.mDropped = cfg.Metrics.Counter("sim_messages_dropped_total")
	r.mEvents = cfg.Metrics.Counter("sim_events_total")
	r.mTimers = cfg.Metrics.Counter("sim_timer_fires_total")
	r.mCoalesced = cfg.Metrics.Counter("sim_timers_coalesced_total")
	return r
}

// Add registers a machine. Machines must be added before Run.
func (r *Runner) Add(m types.Machine) {
	id := m.ID()
	if _, dup := r.byID[id]; dup {
		panic(fmt.Sprintf("sim: duplicate machine id %d", id))
	}
	e := &env{r: r, m: m, self: id, idx: int32(len(r.envs))}
	r.envs = append(r.envs, e)
	r.byID[id] = e
}

// Now returns the current virtual time.
func (r *Runner) Now() types.Time { return r.now }

// Run starts every machine (in insertion order, at time zero, first call
// only) and processes events until the queue drains, until the virtual
// clock exceeds the horizon (0 = no horizon), or the stop predicate returns
// true. It returns an error only if the event budget is exhausted.
//
// Run is resumable: a horizon or stop return leaves pending events queued,
// and a later call with a larger horizon continues exactly where the
// previous one left off. Lockstep drivers (the sharded scenario engine)
// advance several runners through the same virtual instants this way.
func (r *Runner) Run(until types.Time, stop func() bool) error {
	if !r.started {
		r.started = true
		for _, e := range r.envs {
			e.m.Start(e)
		}
	}
	for r.queue.len() > 0 {
		if stop != nil && stop() {
			return nil
		}
		b := r.queue.next()
		if until > 0 && r.queue.headAt(b) > until {
			return nil
		}
		if b != nil && b.ev[b.head].end > 0 {
			if stopped, err := r.fanOut(b, stop); stopped || err != nil {
				return err
			}
			continue
		}
		ev := r.queue.take(b)
		r.now = ev.at
		if !r.count() {
			return r.budgetErr()
		}
		e := r.envs[ev.node]
		if ev.timer {
			if len(r.armed) > 0 {
				delete(r.armed, timerKey{node: ev.node, id: ev.timerID, at: ev.at})
			}
			r.mTimers.Inc()
			e.m.Tick(e, ev.timerID)
			continue
		}
		r.deliver(e, ev.from, ev.msg)
	}
	return nil
}

// count counts one event taken off the queue, and reports whether it is
// inside the event budget.
func (r *Runner) count() bool {
	r.events++
	if r.events > r.cfg.EventBudget {
		return false
	}
	r.mEvents.Inc()
	return true
}

// budgetErr is the error of a run whose event budget ran out.
func (r *Runner) budgetErr() error {
	return fmt.Errorf("%w (%d events)", ErrEventBudget, r.events)
}

// deliver hands msg, sent by the node at index from, to e, past Watch.
func (r *Runner) deliver(e *env, from int32, msg types.Message) {
	src := r.envs[from].self
	if r.Watch != nil {
		r.Watch(src, e.self, msg, r.now)
	}
	e.m.Deliver(e, src, msg)
}

// fanOut hands out, in place, the deliveries of the fan-out entries at the
// head of b, the bucket of the next event: no pop and no event copy per
// recipient. It stops when the head is anything else, or when the far heap's
// top comes first (see eventQueue for why it never does). Before each
// delivery it does what Run does before one: the stop predicate (Run has
// asked it for the first), the event budget and Watch. Every delivery is at
// the tick Run's horizon check admitted, so there is no horizon to check.
// It reports whether the stop predicate ended the run.
func (r *Runner) fanOut(b *bucket, stop func() bool) (stopped bool, err error) {
	if popped != nil {
		popped()
	}
	q := &r.queue
	r.now = b.ev[b.head].at
	q.base = r.now
	for first := true; ; first = false {
		if !first && stop != nil && stop() {
			return true, nil
		}
		// Deliver may append to b, so the head is re-read every time.
		h := &b.ev[b.head]
		to, from, msg := r.envs[h.node], h.from, h.msg
		q.near--
		b.advance()
		if !r.count() {
			return false, r.budgetErr()
		}
		r.deliver(to, from, msg)
		if b.head == len(b.ev) || b.ev[b.head].end == 0 ||
			len(q.far.ev) > 0 && q.far.ev[0].before(&b.ev[b.head]) {
			return false, nil
		}
	}
}

// Decisions returns a copy of every recorded decision, keyed by the NodeIDs
// of the nodes that decided something.
func (r *Runner) Decisions() map[types.NodeID]map[types.Slot]Decision {
	out := make(map[types.NodeID]map[types.Slot]Decision, len(r.envs))
	for _, e := range r.envs {
		if e.decisions.len() > 0 {
			out[e.self] = maps.Collect(e.decisions.all)
		}
	}
	return out
}

// NodeDecisions iterates over node's decisions in ascending slot order; a
// NodeID never added has none. It copies nothing, so the run folds read
// decisions through it rather than through Decisions.
func (r *Runner) NodeDecisions(node types.NodeID) iter.Seq2[types.Slot, Decision] {
	return r.slotOf(node).decisions.all
}

// DecisionCount returns how many decisions the nodes recorded in all: what
// NodeDecisions yields, summed over every node.
func (r *Runner) DecisionCount() int {
	n := 0
	for _, e := range r.envs {
		n += e.decisions.len()
	}
	return n
}

// Decision returns node's decision for slot, if any.
func (r *Runner) Decision(node types.NodeID, slot types.Slot) (Decision, bool) {
	return r.slotOf(node).decisions.get(slot)
}

// unregistered is the empty slot the getters read for a NodeID never added.
var unregistered env

func (r *Runner) slotOf(node types.NodeID) *env {
	if e := r.byID[node]; e != nil {
		return e
	}
	return &unregistered
}

// DecidedCount returns how many machines have decided slot.
func (r *Runner) DecidedCount(slot types.Slot) int {
	count := 0
	for _, e := range r.envs {
		if _, ok := e.decisions.get(slot); ok {
			count++
		}
	}
	return count
}

// AgreementViolation returns an error describing a pair of nodes that
// decided different values for the same slot, or nil. This is the Agreement
// property of Definition 1 (and per-slot Consistency for multi-shot runs).
// The report is deterministic: the lowest divergent slot, its first decider
// in member order, and the first member after it that decided otherwise.
func (r *Runner) AgreementViolation() error {
	// Walk the slots in ascending order, each across every node: the
	// sparse slots below the dense pages, the pages cell by cell, then the
	// sparse slots past them. A sparse slot inside the pages' range is
	// checked with its cell.
	cells := 0
	var sparse []types.Slot
	for _, e := range r.envs {
		cells = max(cells, len(e.decisions.dense)*pageCells)
		for s := range e.decisions.sparse {
			sparse = append(sparse, s)
		}
	}
	slices.Sort(sparse)
	k := 0
	for ; k < len(sparse) && sparse[k] < 0; k++ {
		if err := r.disagreement(sparse[k]); err != nil {
			return err
		}
	}
	for s := types.Slot(0); s < types.Slot(cells); s++ {
		if err := r.disagreement(s); err != nil {
			return err
		}
	}
	for ; k < len(sparse); k++ {
		if s := sparse[k]; s >= types.Slot(cells) {
			if err := r.disagreement(s); err != nil {
				return err
			}
		}
	}
	return nil
}

// disagreement reports slot's first decider in member order and the first
// member after it that decided otherwise, or nil.
func (r *Runner) disagreement(slot types.Slot) error {
	var first *env
	var val types.Value
	for _, e := range r.envs {
		d, ok := e.decisions.get(slot)
		switch {
		case !ok:
		case first == nil:
			first, val = e, d.Val
		case d.Val != val:
			return fmt.Errorf("sim: agreement violated in slot %d: node %d decided %q, node %d decided %q",
				slot, first.self, val, e.self, d.Val)
		}
	}
	return nil
}

// SentBytes returns the bytes node put on the wire (per receiver: a
// broadcast to n nodes costs n× the message size, matching the paper's
// "communicated bits" accounting).
func (r *Runner) SentBytes(node types.NodeID) int64 { return r.slotOf(node).sentBytes }

// RecvBytes returns the bytes delivered to node: its own count (sends,
// and broadcasts that were not synced) plus recvAll, the bytes of the synced
// broadcasts that every node received. A NodeID never added received none.
func (r *Runner) RecvBytes(node types.NodeID) int64 {
	if e := r.byID[node]; e != nil {
		return e.recvBytes + r.recvAll
	}
	return 0
}

// TotalSentBytes sums SentBytes over all nodes.
func (r *Runner) TotalSentBytes() int64 {
	var total int64
	for _, e := range r.envs {
		total += e.sentBytes
	}
	return total
}

// SentMessages returns how many messages of the given kind were sent.
func (r *Runner) SentMessages(kind types.Kind) int64 { return r.sentMsgs[kind] }

// DroppedMessages returns how many messages the network or adversary dropped.
func (r *Runner) DroppedMessages() int64 { return r.dropped }

// Events returns the number of processed events.
func (r *Runner) Events() int { return r.events }

// CoalescedTimers returns how many duplicate timer arms were coalesced into
// an already-pending heap entry.
func (r *Runner) CoalescedTimers() int64 { return r.coalesced }

// env is one node's slot in the runner and the types.Env its machine sees:
// the machine, its NodeID and its index in Runner.envs, the bytes it sent
// and received, and its decisions, indexed by slot (see decisionLog).
type env struct {
	r    *Runner
	m    types.Machine
	self types.NodeID
	idx  int32

	sentBytes int64
	recvBytes int64
	decisions decisionLog
}

func (e *env) Now() types.Time { return e.r.now }

// Send resolves the destination's slot; an unregistered one is nil, which
// send bills and drops.
func (e *env) Send(to types.NodeID, msg types.Message) {
	e.r.send(e, e.r.byID[to], msg, int64(types.EncodedSize(msg)))
}

// Broadcast hands every receiver the one msg: nothing is copied per
// receiver, so a sent message's bytes (a block's payload and transactions
// included) must never be written again. The sender keeps that rule, and
// MSPropose's seal relies on it: all receivers read the ID the leader
// hashed.
func (e *env) Broadcast(msg types.Message) {
	// Size the message once; send bills each of the n receivers at this
	// size, so a broadcast still costs n× on the wire (the paper's
	// "communicated bits" accounting) without n serializations.
	size := int64(types.EncodedSize(msg))
	if e.r.cfg.Adversary == nil && e.r.now >= e.r.cfg.GST {
		e.r.broadcastSynced(e, msg, size)
		return
	}
	for _, to := range e.r.envs {
		e.r.send(e, to, msg, size)
	}
}

func (e *env) SetTimer(id types.TimerID, d types.Duration) {
	r := e.r
	at := r.now + types.Time(d)
	// Coalesce duplicate arms: a timer already pending for this (node, id,
	// instant) fires exactly once, so re-arming it must not grow the queue.
	// Protocols that re-arm on every delivery (retransmission timers,
	// per-view timers under message storms) stay O(live timers) instead of
	// O(arms). A pending timer is in its tick's bucket when that tick is in
	// the ring, and in armed when it was pushed to the far heap (it may
	// have been far when armed and be inside the ring now).
	key := timerKey{node: e.idx, id: id, at: at}
	near := r.queue.inRing(at)
	dup := near && r.queue.holdsTimer(at, e.idx, id)
	if !dup && len(r.armed) > 0 {
		_, dup = r.armed[key]
	}
	if dup {
		r.coalesced++
		r.mCoalesced.Inc()
		return
	}
	if !near {
		r.armed[key] = struct{}{}
	}
	r.push(event{at: at, node: e.idx, timer: true, timerID: id})
}

func (e *env) Decide(slot types.Slot, val types.Value) {
	// Decisions are final: put ignores a repeated Decide for a slot.
	e.decisions.put(slot, Decision{Val: val, At: e.r.now})
}

// decisionLog is one node's decisions. Slots 0, 1, 2, … — a single-shot
// decision and a multi-shot log — are cells of dense, a list of pages of
// pageCells cells each that grows with the slots decided: a page, once made,
// never moves, so growing the log never copies a decided cell. A slot is
// dense if its page ends at or below 2·count + denseSlack, so dense never
// exceeds 2·count + denseSlack cells and a stray huge slot cannot allocate
// beyond what the node's real decisions justify. Every other slot (negative,
// or past that bound when decided) lives in sparse. A slot is in at most one
// of the two.
type decisionLog struct {
	dense  [][]denseDecision
	count  int // decided cells in dense
	sparse map[types.Slot]Decision
}

// denseDecision is one cell of decisionLog.dense; set marks a decided slot.
type denseDecision struct {
	Decision
	set bool
}

// denseSlack is how far past twice its decided count dense may grow: a log
// that starts at slot 1, or skips a few slots, stays dense.
const denseSlack = 64

// pageCells is the size of a dense page: denseSlack, so that an empty log's
// first page is inside the bound.
const pageCells = denseSlack

func (l *decisionLog) len() int { return l.count + len(l.sparse) }

// cell returns slot's dense cell, nil when slot is outside the pages made.
func (l *decisionLog) cell(slot types.Slot) *denseDecision {
	if slot < 0 || slot >= types.Slot(len(l.dense)*pageCells) {
		return nil
	}
	return &l.dense[slot/pageCells][slot%pageCells]
}

func (l *decisionLog) get(slot types.Slot) (Decision, bool) {
	if c := l.cell(slot); c != nil && c.set {
		return c.Decision, true
	}
	d, ok := l.sparse[slot]
	return d, ok
}

// put records d for slot unless slot is already decided.
func (l *decisionLog) put(slot types.Slot, d Decision) {
	if _, ok := l.get(slot); ok {
		return
	}
	// Page k ends at (k+1)·pageCells, within the bound while k·pageCells
	// <= 2·count; this form cannot overflow. The page stays a Slot: an int
	// may be too narrow for it.
	page := slot / pageCells
	if slot < 0 || page > types.Slot(2*l.count/pageCells) {
		if l.sparse == nil {
			l.sparse = make(map[types.Slot]Decision)
		}
		l.sparse[slot] = d
		return
	}
	for types.Slot(len(l.dense)) <= page {
		l.dense = append(l.dense, make([]denseDecision, pageCells))
	}
	l.dense[page][slot%pageCells] = denseDecision{Decision: d, set: true}
	l.count++
}

// all yields every decision in ascending slot order, merging the sparse
// slots (sorted on each call; they are rare) around the dense ones.
func (l *decisionLog) all(yield func(types.Slot, Decision) bool) {
	keys := slices.Sorted(maps.Keys(l.sparse))
	k, i := 0, 0
	for _, page := range l.dense {
		for _, c := range page {
			for ; k < len(keys) && keys[k] < types.Slot(i); k++ {
				if !yield(keys[k], l.sparse[keys[k]]) {
					return
				}
			}
			if c.set && !yield(types.Slot(i), c.Decision) {
				return
			}
			i++
		}
	}
	for _, s := range keys[k:] {
		if !yield(s, l.sparse[s]) {
			return
		}
	}
}

// send routes one message with a precomputed encoded size (callers size a
// broadcast once for all n receivers). A nil to is an unregistered
// destination: the sender is billed, the message counts as dropped, and the
// adversary never sees it. When the adversary replaces the message, the
// receiver is billed at the *replacement's* encoded size — the substituted
// bytes are what actually cross the wire — while the sender keeps the
// original-size charge.
func (r *Runner) send(from, to *env, msg types.Message, size int64) {
	from.sentBytes += size
	r.sentMsgs[msg.Kind()]++
	r.mSent.Inc()
	if to == nil {
		r.drop()
		return
	}

	var extra types.Duration
	if r.cfg.Adversary != nil {
		v := r.cfg.Adversary.Intercept(from.self, to.self, msg, r.now)
		if v.Drop {
			r.drop()
			return
		}
		if v.Replace != nil {
			msg = v.Replace
			size = int64(types.EncodedSize(msg))
		}
		extra = v.ExtraDelay
	}

	at := r.now
	if to != from { // self-delivery is immediate: nodes count their own votes
		if r.now < r.cfg.GST {
			if r.rng.Float64() < r.cfg.DropBeforeGST {
				r.drop()
				return
			}
			if r.cfg.GST > at {
				at = r.cfg.GST
			}
		}
		at += types.Time(r.cfg.Delay.Delay(r.rng, from.self, to.self))
	}
	at += types.Time(extra)

	to.recvBytes += size
	r.push(event{at: at, node: to.idx, from: from.idx, msg: msg})
}

// broadcastSynced sends msg to every node when nothing can drop, rewrite or
// hold it back: no adversary, and the clock at or past GST. Every node, self
// included, receives it, so its bytes go to recvAll once instead of to each
// node. It draws each remote recipient's delay in recipient order, the draws
// n calls of send would make; a ConstantDelay draws nothing, so it skips the
// calls. When every remote delivery lands on one instant after the
// self-delivery's and inside the ring, those deliveries are one fan-out
// entry that takes the seq block their pushes would have taken, so the pop
// order, and with it the run, is the per-recipient one.
func (r *Runner) broadcastSynced(from *env, msg types.Message, size int64) {
	n := len(r.envs)
	r.recvAll += size
	from.sentBytes += int64(n) * size
	r.sentMsgs[msg.Kind()] += int64(n)
	r.mSent.Add(int64(n))
	first := int32(0) // the first remote recipient
	if from.idx == 0 {
		first = 1
	}
	c, uniform := r.cfg.Delay.(ConstantDelay)
	d0 := c.D // first's delay
	if !uniform {
		uniform = true
		delays := r.delays[:0]
		for i, to := range r.envs {
			var d types.Duration
			if to != from { // self-delivery is immediate
				d = r.cfg.Delay.Delay(r.rng, from.self, to.self)
				if int32(i) == first {
					d0 = d
				}
				uniform = uniform && d == d0
			}
			delays = append(delays, d)
		}
		r.delays = delays
	}

	at := r.now + types.Time(d0)
	if n < 2 || !uniform || at <= r.now || !r.queue.inRing(at) {
		for i, to := range r.envs {
			d := d0
			if !uniform {
				d = r.delays[i]
			} else if to == from {
				d = 0
			}
			r.push(event{at: r.now + types.Time(d), node: to.idx, from: from.idx, msg: msg})
		}
		return
	}
	s0 := r.seq // recipient i's seq is s0+i
	r.seq += uint64(n)
	r.queue.push(event{at: r.now, seq: s0 + uint64(from.idx), node: from.idx, from: from.idx, msg: msg})
	r.queue.pushFanOut(event{at: at, seq: s0 + uint64(first), node: first, from: from.idx, end: int32(n), msg: msg}, n-1)
}

func (r *Runner) drop() {
	r.dropped++
	r.mDropped.Inc()
}

func (r *Runner) push(ev event) {
	ev.seq = r.seq
	r.seq++
	r.queue.push(ev)
}

// timerKey identifies one pending timer event for coalescing.
type timerKey struct {
	node int32 // index in Runner.envs
	id   types.TimerID
	at   types.Time
}

// event is either a message delivery or a timer fire for one node, named by
// its index in Runner.envs; from is the sender's index.
//
// A fan-out entry (end > 0) is the remote deliveries of one broadcast, all
// at the same instant: to node, then each later index below end except
// from, whose self-delivery is an event of its own. node and seq name the
// next delivery; recipient i's seq is seq + (i − node), the seq its own
// push would have taken.
type event struct {
	at    types.Time
	seq   uint64
	node  int32
	from  int32
	end   int32
	timer bool

	timerID types.TimerID

	msg types.Message
}

// before reports whether a pops ahead of b: the (at, seq) total order.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// nextRecipient is the recipient a fan-out entry hands out after node; the
// entry is spent when it reaches end.
func (a *event) nextRecipient() int32 {
	i := a.node + 1
	if i == a.from {
		i++
	}
	return i
}

// nearTicks is W, the calendar ring's width in ticks. A power of two, so a
// tick's bucket is at & (W-1). Under the unit delay model almost every event
// lands 0 or 1 tick ahead, delays up to Δ (10 ticks by default) stay well
// inside the ring, and so do the default 9Δ = 90-tick view timers; longer
// timers and GST jumps go to the far heap.
const nearTicks = 128

// eventQueue is a calendar queue ordered by (at, seq): a ring of nearTicks
// per-tick FIFO buckets covering [base, base+W), plus a far heap for
// everything else — timers W or more ticks ahead, delays of W or more, GST
// jumps, and pushes behind base (a test that pops outside Run without
// advancing the clock).
//
// The order is exactly (at, seq), the pop sequence of the single heap this
// replaced, so every simulation is unchanged: a bucket holds one tick, and
// the runner stamps seq in push order, so a bucket's FIFO order is its seq
// order; pop compares the first non-empty bucket's head with the far heap's
// top and takes the smaller. base only moves forward, to the tick of the
// event just popped — every queued event is at or after it — so ring events
// stay inside [base, base+W) and, inside Run, base equals the clock: a
// message with delay < W is never pushed to the far heap. When the ring is
// empty the far top is popped and base jumps to it.
//
// A fan-out entry (see event) lives in the ring only. It holds a contiguous
// seq block that no other push can fall inside, so handing its deliveries
// out one pop at a time, in recipient order, keeps the (at, seq) order; len
// counts deliveries, not entries.
//
// Run hands a fan-out entry's deliveries out in place (Runner.fanOut), not
// one pop at a time: once the head of the queue is a fan-out entry, Run
// delivers from the head of its bucket until the head is anything else.
// That is the pop order. Anything a recipient's Deliver pushes, a delay-0
// self-delivery at the same tick included, takes a larger seq than the
// entry's block, so the entry's remaining recipients are still next; the
// next entry in the bucket, if it is one, follows them in seq order; and the
// bucket holds only the current tick, since base is the clock. The far
// heap's top is compared anyway, as next does.
//
// Memory: W bucket headers (32 B each, 4 KiB) plus, per bucket, the
// capacity of the busiest tick it has held; emptied buckets keep their
// capacity, so a steady push/pop cycle allocates nothing. An n=16 multishot
// run of 2,100 slots (up to 1,791 deliveries and timers queued in at most
// 1,479 entries, ≈ 1,440 of them view timers) retains 0.5 MiB of buckets, 73
// 56-byte events per bucket; one entry per recipient in a 64-tick ring, with
// the timers in the far heap, retained 1.0 MiB plus 0.1 MiB of heap.
type eventQueue struct {
	ring [nearTicks]bucket
	base types.Time
	near int // deliveries and timers in the ring
	far  farHeap

	// farMsgs and farTimers count the message and timer events pushed to
	// the far heap; the tests pin farMsgs at 0 for constant-delay runs and
	// farTimers at 0 for default-Δ multishot runs.
	farMsgs   int
	farTimers int
}

// bucket is the FIFO of one tick: ev[head:] are pending.
type bucket struct {
	ev   []event
	head int
}

func (q *eventQueue) len() int { return q.near + len(q.far.ev) }

// inRing reports whether an event at at would be pushed to the ring.
func (q *eventQueue) inRing(at types.Time) bool {
	return at >= q.base && at-q.base < nearTicks
}

func (q *eventQueue) push(e event) {
	if q.inRing(e.at) {
		b := &q.ring[e.at&(nearTicks-1)]
		b.ev = append(b.ev, e)
		q.near++
		return
	}
	if e.timer {
		q.farTimers++
	} else {
		q.farMsgs++
	}
	q.far.push(e)
}

// pushFanOut queues a fan-out entry of deliveries deliveries. Its instant
// must be inside the ring.
func (q *eventQueue) pushFanOut(e event, deliveries int) {
	b := &q.ring[e.at&(nearTicks-1)]
	b.ev = append(b.ev, e)
	q.near += deliveries
}

// holdsTimer reports whether the bucket of at, a tick inside the ring,
// holds a pending timer id for node. A bucket holds one tick, so the timer
// is at at.
func (q *eventQueue) holdsTimer(at types.Time, node int32, id types.TimerID) bool {
	b := &q.ring[at&(nearTicks-1)]
	for i := b.head; i < len(b.ev); i++ {
		if e := &b.ev[i]; e.timer && e.node == node && e.timerID == id {
			return true
		}
	}
	return false
}

// next returns the bucket whose head is the next event, or nil when the next
// event is the far heap's top. The ring's first non-empty bucket is, inside
// Run, at base or base+1. The queue must not be empty.
func (q *eventQueue) next() *bucket {
	if q.near == 0 {
		return nil
	}
	for t := q.base; ; t++ {
		if b := &q.ring[t&(nearTicks-1)]; b.head < len(b.ev) {
			if len(q.far.ev) > 0 && q.far.ev[0].before(&b.ev[b.head]) {
				return nil
			}
			return b
		}
	}
}

// peekAt returns the time of the next event. The queue must not be empty.
func (q *eventQueue) peekAt() types.Time { return q.headAt(q.next()) }

// headAt returns the time of the next event, given b = next().
func (q *eventQueue) headAt(b *bucket) types.Time {
	if b != nil {
		return b.ev[b.head].at
	}
	return q.far.ev[0].at
}

// pop removes and returns the next event: a fan-out entry hands out its next
// delivery as a plain message event and stays at its bucket's head until
// spent. The queue must not be empty.
func (q *eventQueue) pop() event { return q.take(q.next()) }

// take is pop given b = next().
func (q *eventQueue) take(b *bucket) event {
	if popped != nil {
		popped()
	}
	if b == nil {
		e := q.far.pop()
		if e.at > q.base {
			q.base = e.at
		}
		return e
	}
	e := b.ev[b.head]
	e.end = 0
	q.near--
	q.base = e.at
	b.advance()
	return e
}

// popped, when set, is called each time the next event is taken off the
// queue's head: by every pop, and once when Run starts handing out a
// fan-out entry in place (a test hook: nil in production).
var popped func()

// advance moves b past its head's next delivery: a fan-out entry with
// recipients left moves on to the next one, anything else leaves the bucket.
func (b *bucket) advance() {
	h := &b.ev[b.head]
	if h.end > 0 {
		if i := h.nextRecipient(); i < h.end {
			h.seq += uint64(i - h.node)
			h.node = i
			return
		}
	}
	*h = event{} // release the msg reference for the GC
	b.head++
	if b.head == len(b.ev) {
		b.ev, b.head = b.ev[:0], 0
	}
}

// farHeap is an inlined, value-typed 4-ary min-heap ordered by (at, seq).
// Compared with container/heap it avoids boxing every event through the
// `any` interface (an allocation per push) and the dynamic dispatch on
// Less/Swap; the 4-ary layout halves the tree depth.
type farHeap struct {
	ev []event
}

func (q *farHeap) less(i, j int) bool { return q.ev[i].before(&q.ev[j]) }

func (q *farHeap) push(e event) {
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

func (q *farHeap) pop() event {
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
