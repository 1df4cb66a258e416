package multishot

import (
	"fmt"
	"testing"

	"tetrabft/internal/byz"
	"tetrabft/internal/sim"
	"tetrabft/internal/types"
)

// auditStore is the Persister of the sent ⊆ persisted audit. seen is what
// the audit treats as durable: the latest snapshot a Persist call accepted.
// With late set it stands in for a node that sends first and writes after:
// a snapshot only counts as durable once the turn that wrote it is over.
type auditStore struct {
	seen    PersistentState
	pending *PersistentState
	late    bool
	writes  int
	wrote   func() // called as a write returns
}

func (s *auditStore) Persist(st PersistentState) error {
	st.Slots = append([]SlotPersist(nil), st.Slots...) // the node reuses the array
	s.writes++
	defer s.wrote()
	if s.late {
		s.pending = &st
		return nil
	}
	s.seen = st
	return nil
}

// audited hosts one node on the simulator and checks every message the node
// hands to the Env against the durable snapshot at that moment. Between
// crashAt and restoreAt (when set) the node is down; the first event after
// that relaunches it from the durable snapshot, as a WAL-backed replica is.
type audited struct {
	cfg   Config
	node  *Node
	store *auditStore
	env   auditEnv

	crashAt, restoreAt types.Time
	restored           bool

	votes      int
	violations []string

	// steps is the host's turn log: the writes that returned, the batches
	// cfg.Batch handed out and the proposals handed to the Env, in order.
	turns int
	steps []step
}

// step is one entry of a host's turn log.
type step struct {
	turn int
	kind string // "persist", "batch" or "propose"
	txs  [][]byte
	// slot and view of a proposal.
	slot types.Slot
	view types.View
}

func newAudited(t *testing.T, cfg Config, late bool) *audited {
	t.Helper()
	a := &audited{cfg: cfg, store: &auditStore{late: late}}
	a.store.wrote = func() { a.steps = append(a.steps, step{turn: a.turns, kind: "persist"}) }
	a.cfg.Persist = a.store
	if source := cfg.Batch; source != nil {
		a.cfg.Batch = func(s types.Slot, now types.Time) [][]byte {
			txs := source(s, now)
			a.steps = append(a.steps, step{turn: a.turns, kind: "batch", txs: txs})
			return txs
		}
	}
	a.env.a = a
	node, err := NewNode(a.cfg)
	if err != nil {
		t.Fatal(err)
	}
	a.node = node
	return a
}

func (a *audited) ID() types.NodeID { return a.cfg.ID }

// turn runs one handler and, for the late store, lets its write land.
func (a *audited) turn(env types.Env, run func(types.Env)) {
	a.env.Env = env
	a.turns++
	if a.restoreAt > 0 && env.Now() >= a.crashAt {
		if env.Now() < a.restoreAt {
			return // down
		}
		if !a.restored {
			a.restored = true
			node, err := Restore(a.cfg, a.store.seen)
			if err != nil {
				panic(err)
			}
			a.node = node
			a.node.Start(&a.env)
		}
	}
	run(&a.env)
	if a.store.pending != nil {
		a.store.seen, a.store.pending = *a.store.pending, nil
	}
}

func (a *audited) Start(env types.Env) { a.turn(env, func(e types.Env) { a.node.Start(e) }) }
func (a *audited) Deliver(env types.Env, from types.NodeID, msg types.Message) {
	a.turn(env, func(e types.Env) { a.node.Deliver(e, from, msg) })
}
func (a *audited) Tick(env types.Env, id types.TimerID) {
	a.turn(env, func(e types.Env) { a.node.Tick(e, id) })
}

// auditEnv passes everything through; sends are audited on the way.
type auditEnv struct {
	types.Env
	a *audited
}

func (e *auditEnv) Send(to types.NodeID, msg types.Message) {
	e.a.check(msg)
	e.Env.Send(to, msg)
}

func (e *auditEnv) Broadcast(msg types.Message) {
	e.a.check(msg)
	if p, ok := msg.(types.MSPropose); ok {
		e.a.steps = append(e.a.steps, step{turn: e.a.turns, kind: "propose", slot: p.Block.Slot, view: p.View, txs: p.Block.Txs})
	}
	e.Env.Broadcast(msg)
}

// covers reports whether the durable reference is at least as recent as the
// one a message carried.
func covers(durable, sent types.VoteRef) bool {
	return !sent.Valid || (durable.Valid && durable.View >= sent.View)
}

// check is the audit: what msg reveals of the node's vote state must already
// be in the durable snapshot.
func (a *audited) check(msg types.Message) {
	entry := func(s types.Slot) (SlotPersist, bool) {
		for _, e := range a.store.seen.Slots {
			if e.Slot == s {
				return e, true
			}
		}
		return SlotPersist{}, false
	}
	bad := func(format string, args ...any) {
		a.violations = append(a.violations, fmt.Sprintf("node %d: ", a.cfg.ID)+fmt.Sprintf(format, args...))
	}
	switch m := msg.(type) {
	case types.MSVote:
		a.votes++
		if e, ok := entry(m.Slot); !ok || e.Votes.Vote1 != types.Vote(m.View, m.Block.Value()) {
			bad("vote for slot %d view %d left before it was durable (durable vote-1 %v)", m.Slot, m.View, e.Votes.Vote1)
		}
	case types.MSViewChange:
		if e, ok := entry(m.Slot); ok {
			if e.HighestVC < m.View {
				bad("view-change call slot %d view %d left with durable HighestVC %d", m.Slot, m.View, e.HighestVC)
			}
		} else if st := a.node.peekSlot(m.Slot); st != nil && st.started {
			// Only started slots are persisted; an echo for a slot this
			// node has not reached yet has nothing to be written.
			bad("view-change call for started slot %d left with the slot not durable", m.Slot)
		}
	case types.MSProof:
		if e, ok := entry(m.Slot); !ok || e.View < m.View ||
			!covers(e.Votes.Vote1, m.Vote1) || !covers(e.Votes.PrevVote1, m.PrevVote1) || !covers(e.Votes.Vote4, m.Vote4) {
			bad("proof for slot %d view %d left before view and history were durable", m.Slot, m.View)
		}
	case types.MSSuggest:
		if e, ok := entry(m.Slot); !ok || e.View < m.View ||
			!covers(e.Votes.Vote2, m.Vote2) || !covers(e.Votes.PrevVote2, m.PrevVote2) || !covers(e.Votes.Vote3, m.Vote3) {
			bad("suggest for slot %d view %d left before view and history were durable", m.Slot, m.View)
		}
	}
}

// auditRun drives one named fault scenario on n nodes and returns the hosts
// of the honest ones. opts adjust each honest node's Config.
func auditRun(t *testing.T, scenario string, n int, late bool, opts ...func(*Config)) []*audited {
	t.Helper()
	const maxSlot = 24
	simCfg := sim.Config{Seed: 1}
	if scenario == "lost-proposal" {
		// Slot 5 never sees its view-0 proposal while slots 2-4 are voted on:
		// the view change hands their new leaders a value to re-propose
		// (Rule 1), as in TestRecoveryPreservesNotarizedValues.
		simCfg.Adversary = loseProposal(5)
	}
	r := sim.New(simCfg)
	var hosts []*audited
	for i := 0; i < n; i++ {
		id := types.NodeID(i)
		switch {
		case scenario == "silent-leader" && i == n-1:
			r.Add(byz.Silent{NodeID: id})
			continue
		case scenario == "equivocating-leader" && i == 2:
			peers := make([]types.NodeID, n)
			for j := range peers {
				peers[j] = types.NodeID(j)
			}
			r.Add(&blockEquivocator{id: id, n: n, peers: peers})
			continue
		}
		cfg := Config{ID: id, Nodes: n, Delta: 10, MaxSlot: maxSlot}
		for _, o := range opts {
			o(&cfg)
		}
		a := newAudited(t, cfg, late)
		if scenario == "crash-restore" && i == 1 {
			a.crashAt, a.restoreAt = 8, 120
		}
		hosts = append(hosts, a)
		r.Add(a)
	}
	if err := r.Run(20000, nil); err != nil {
		t.Fatal(err)
	}
	if err := r.AgreementViolation(); err != nil {
		t.Fatal(err)
	}
	return hosts
}

// TestSentSubsetOfPersisted is the write-ahead invariant as a trace
// assertion: at the moment a vote, view-change call, proof or suggest is
// handed to the Env, the latest snapshot the Persister accepted already
// holds the vote, HighestVC or view it reveals — in the good case, through
// view changes, under an equivocating leader and across a crash–restore.
func TestSentSubsetOfPersisted(t *testing.T) {
	for _, n := range []int{4, 7} {
		for _, scenario := range []string{"good-case", "silent-leader", "equivocating-leader", "crash-restore"} {
			t.Run(fmt.Sprintf("%s/n=%d", scenario, n), func(t *testing.T) {
				hosts := auditRun(t, scenario, n, false)
				nodes := make([]*Node, len(hosts))
				for i, a := range hosts {
					nodes[i] = a.node
					if a.votes == 0 {
						t.Errorf("node %d never voted: the audit saw nothing", a.cfg.ID)
					}
					if a.restoreAt > 0 && !a.restored {
						t.Errorf("node %d was never relaunched", a.cfg.ID)
					}
					for _, v := range a.violations {
						t.Error(v)
					}
					if a.node.FinalizedSlot() < 8 {
						t.Errorf("node %d finalized only %d slots", a.cfg.ID, a.node.FinalizedSlot())
					}
				}
				checkChains(t, nodes)
			})
		}
	}
}

// TestSentSubsetOfPersistedHasTeeth: the same audit must catch a node that
// releases its sends before the write lands.
func TestSentSubsetOfPersistedHasTeeth(t *testing.T) {
	for _, a := range auditRun(t, "good-case", 4, true) {
		if len(a.violations) == 0 {
			t.Errorf("node %d sent before writing and the audit reported nothing", a.cfg.ID)
		}
	}
}

// TestOneWritePerVote pins the turn's cost: in a fault-free run a node
// writes exactly once per vote it sends — one durable write per slot — and
// nothing else (proposals, finalizations and timers ride on those writes).
// The CI perf job runs this by name.
func TestOneWritePerVote(t *testing.T) {
	const maxSlot = 24
	for _, a := range auditRun(t, "good-case", 4, false) {
		if a.node.FinalizedSlot() != maxSlot-3 {
			t.Fatalf("node %d finalized %d slots, want %d", a.cfg.ID, a.node.FinalizedSlot(), maxSlot-3)
		}
		if a.votes != maxSlot {
			t.Errorf("node %d sent %d votes, want one per slot (%d)", a.cfg.ID, a.votes, maxSlot)
		}
		if a.store.writes != a.votes {
			t.Errorf("node %d persisted %d times for %d votes, want exactly one write per vote", a.cfg.ID, a.store.writes, a.votes)
		}
	}
}

// TestViewChangeTurnWritesOnce: the turn that moves k slots into a new view
// writes one snapshot for all of them, ahead of k proofs and k suggests.
func TestViewChangeTurnWritesOnce(t *testing.T) {
	store := &memPersister{}
	node, err := NewNode(Config{ID: 0, Nodes: 4, Persist: store})
	if err != nil {
		t.Fatal(err)
	}
	env := &recordEnv{}
	node.Start(env)
	// Proposals for slots 1 and 2 start slots 1..3 (a proposal for s starts s+1).
	b1 := types.Block{Slot: 1, Parent: types.ZeroBlockID, Payload: []byte("b1")}
	b2 := types.Block{Slot: 2, Parent: b1.ID(), Payload: []byte("b2")}
	node.Deliver(env, node.Leader(1, 0), types.MSPropose{View: 0, Block: b1})
	node.Deliver(env, node.Leader(2, 0), types.MSPropose{View: 0, Block: b2})
	// f+1 calls make the node echo; the quorum-completing one moves all three.
	node.Deliver(env, 1, types.MSViewChange{Slot: 1, View: 1})
	node.Deliver(env, 2, types.MSViewChange{Slot: 1, View: 1})
	writes, sent := len(store.states), len(env.broadcasts())
	node.Deliver(env, 3, types.MSViewChange{Slot: 1, View: 1})
	proofs := 0
	for _, m := range env.broadcasts()[sent:] {
		if _, ok := m.(types.MSProof); ok {
			proofs++
		}
	}
	if proofs != 3 {
		t.Fatalf("the view-change turn broadcast %d proofs, want 3 (slots 1..3)", proofs)
	}
	if got := len(store.states) - writes; got != 1 {
		t.Errorf("the view-change turn persisted %d times, want once", got)
	}
	for _, s := range store.last().Slots {
		if s.View != 1 {
			t.Errorf("slot %d durable at view %d when its proof left, want 1", s.Slot, s.View)
		}
	}
}

// TestNestedTurnWritesAhead: when a released broadcast re-enters Deliver and
// that nested turn votes, the vote is written before it leaves and takes its
// place in line behind what the outer turn still has to release.
func TestNestedTurnWritesAhead(t *testing.T) {
	a := newAudited(t, Config{ID: 2, Nodes: 4}, false) // node 2 leads slot 2
	env := &recordEnv{loopback: a}
	a.Start(env)
	b1 := types.Block{Slot: 1, Parent: types.ZeroBlockID, Payload: []byte("b1")}
	a.Deliver(env, 0, types.MSVote{Slot: 1, View: 0, Block: b1.ID()})
	a.Deliver(env, 3, types.MSVote{Slot: 1, View: 0, Block: b1.ID()})
	// The proposal makes node 2 vote for slot 1 and propose slot 2. Its own
	// vote, handed back during the release, notarizes slot 1; its own
	// proposal, handed back next, then makes it vote for slot 2 — a nested
	// turn with a write of its own.
	a.Deliver(env, 1, types.MSPropose{View: 0, Block: b1})
	var got []string
	for _, m := range env.broadcasts() {
		switch v := m.(type) {
		case types.MSVote:
			got = append(got, fmt.Sprintf("vote-%d", v.Slot))
		case types.MSPropose:
			got = append(got, fmt.Sprintf("propose-%d", v.Block.Slot))
		}
	}
	if want := "[vote-1 propose-2 vote-2]"; fmt.Sprint(got) != want {
		t.Fatalf("released %v, want %v", got, want)
	}
	for _, v := range a.violations {
		t.Error(v)
	}
	if a.store.writes != 2 {
		t.Errorf("%d writes for two votes, want 2", a.store.writes)
	}
}

// sameBatch reports whether a and b are one batch: the same transactions in
// the same backing array, not merely equal bytes.
func sameBatch(a, b [][]byte) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// TestBatchDrawnAfterWrite pins the turn's second rule — a fresh proposal is
// assembled at release. In every turn that both writes and proposes, the
// order is Persist → Batch → Broadcast(MSPropose); the proposal carries
// exactly the batch that call returned; and the source is asked once per
// fresh proposal, never for a body Rule 1 makes a new leader re-propose
// (lost-proposal), nor — like the payload source — for a tail slot above
// MaxSlot − 3, which can never finalize: its block carries no batch. The CI
// perf job runs this by name.
func TestBatchDrawnAfterWrite(t *testing.T) {
	for _, scenario := range []string{"good-case", "lost-proposal"} {
		t.Run(scenario, func(t *testing.T) {
			// Every call hands out a batch of its own, so a proposal's
			// transactions name the call that drew them.
			calls := 0
			source := func(s types.Slot, _ types.Time) [][]byte {
				calls++
				return [][]byte{[]byte(fmt.Sprintf("call-%d-slot-%d", calls, s))}
			}
			var asked []types.Slot // the slots the payload source was asked for
			hosts := auditRun(t, scenario, 4, false, func(c *Config) {
				c.Batch = source
				c.Payload = func(s types.Slot) []byte {
					asked = append(asked, s)
					return []byte("p")
				}
			})
			for _, s := range asked {
				if s > hosts[0].cfg.MaxSlot-3 {
					t.Errorf("the payload source was asked for tail slot %d", s)
				}
			}

			wroteAndProposed, reproposed, proposals, tail := 0, 0, 0, 0
			for _, a := range hosts {
				for _, v := range a.violations {
					t.Error(v)
				}
				// Walk the log turn by turn; open holds the batches the turn
				// has drawn and not yet put in a proposal.
				turn, wrote, open := 0, false, [][][]byte(nil)
				for _, st := range append(a.steps, step{turn: -1}) {
					if st.turn != turn {
						if len(open) != 0 {
							t.Errorf("node %d turn %d: %d drawn batches left in no proposal", a.cfg.ID, turn, len(open))
						}
						turn, wrote, open = st.turn, false, nil
					}
					switch st.kind {
					case "persist":
						wrote = true
						if len(open) != 0 {
							t.Errorf("node %d turn %d: a batch was drawn before the turn's write", a.cfg.ID, turn)
						}
					case "batch":
						open = append(open, st.txs)
					case "propose":
						proposals++
						i := 0
						for i < len(open) && !sameBatch(open[i], st.txs) {
							i++
						}
						switch {
						case st.slot > a.cfg.MaxSlot-3:
							tail++
							if len(st.txs) != 0 {
								t.Errorf("node %d turn %d: proposal for tail slot %d carries a batch", a.cfg.ID, turn, st.slot)
							}
						case i < len(open): // fresh: assembled in this turn
							open = append(open[:i], open[i+1:]...)
							if wrote {
								wroteAndProposed++
							}
						case st.view == 0:
							t.Errorf("node %d turn %d: view-0 proposal for slot %d carries a batch this turn did not draw", a.cfg.ID, turn, st.slot)
						default:
							reproposed++
						}
					}
				}
			}
			if wroteAndProposed == 0 {
				t.Fatal("no turn both wrote and proposed: the ordering was never exercised")
			}
			if tail == 0 {
				t.Error("no tail slot was proposed")
			}
			if calls != proposals-reproposed-tail {
				t.Errorf("%d batch calls for %d proposals of which %d re-proposed a known body and %d are in the tail, want one per fresh proposal below the tail", calls, proposals, reproposed, tail)
			}
			if (scenario == "lost-proposal") != (reproposed > 0) {
				t.Errorf("%s: %d proposals re-proposed a known body", scenario, reproposed)
			}
		})
	}
}

// tickingDisk is a Persister whose writes take time: each one advances the
// clock of the Env the node runs on by one tick, as a wall clock moves
// during a durable write. The simulator's clock stands still (ticks 0).
type tickingDisk struct {
	memPersister
	env   *recordEnv
	ticks types.Time
}

func (d *tickingDisk) Persist(s PersistentState) error {
	d.env.now += d.ticks
	return d.memPersister.Persist(s)
}

// TestBatchSeesReleaseClock: the now handed to Config.Batch is the clock
// after the turn's write, so an arrival-gated pool hands out what arrived
// during the write. With a clock that stands still inside a turn (the
// simulator's) it equals the handler's, which is why no golden moves.
func TestBatchSeesReleaseClock(t *testing.T) {
	for _, ticks := range []types.Time{1, 0} {
		env := &recordEnv{now: 7}
		var asked []types.Time
		// Node 2 leads slot 2: the proposal for slot 1 makes it vote for
		// slot 1 (a write) and propose slot 2 in one turn.
		node, err := NewNode(Config{ID: 2, Nodes: 4, Persist: &tickingDisk{env: env, ticks: ticks},
			Batch: func(_ types.Slot, now types.Time) [][]byte {
				asked = append(asked, now)
				return nil
			}})
		if err != nil {
			t.Fatal(err)
		}
		node.Start(env)
		b := types.Block{Slot: 1, Parent: types.ZeroBlockID, Payload: []byte("p")}
		node.Deliver(env, 1, types.MSPropose{View: 0, Block: b})
		if len(asked) != 1 || asked[0] != 7+ticks {
			t.Errorf("a write of %d ticks begun at t=7: the batch source was asked at %v, want once at t=%d", ticks, asked, 7+ticks)
		}
	}
}
