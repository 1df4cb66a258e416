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
}

func (s *auditStore) Persist(st PersistentState) error {
	st.Slots = append([]SlotPersist(nil), st.Slots...) // the node reuses the array
	s.writes++
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
}

func newAudited(t *testing.T, cfg Config, late bool) *audited {
	t.Helper()
	a := &audited{cfg: cfg, store: &auditStore{late: late}}
	a.cfg.Persist = a.store
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
// of the honest ones.
func auditRun(t *testing.T, scenario string, n int, late bool) []*audited {
	t.Helper()
	const maxSlot = 24
	r := sim.New(sim.Config{Seed: 1})
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
		a := newAudited(t, Config{ID: id, Nodes: n, Delta: 10, MaxSlot: maxSlot}, late)
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
	writes, sent := len(store.states), len(env.broadcasts)
	node.Deliver(env, 3, types.MSViewChange{Slot: 1, View: 1})
	proofs := 0
	for _, m := range env.broadcasts[sent:] {
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

// loopEnv hands a node's broadcasts straight back to it inside the call, as
// the replay harnesses do (the simulator and the TCP runtime queue them).
type loopEnv struct {
	recordEnv
	to types.Machine
}

func (e *loopEnv) Broadcast(m types.Message) {
	e.recordEnv.Broadcast(m)
	e.to.Deliver(e, e.to.ID(), m)
}

// TestNestedTurnWritesAhead: when a released broadcast re-enters Deliver and
// that nested turn votes, the vote is written before it leaves and takes its
// place in line behind what the outer turn still has to release.
func TestNestedTurnWritesAhead(t *testing.T) {
	a := newAudited(t, Config{ID: 2, Nodes: 4}, false) // node 2 leads slot 2
	env := &loopEnv{to: a}
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
	for _, m := range env.broadcasts {
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
