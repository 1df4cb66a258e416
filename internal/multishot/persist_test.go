package multishot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"tetrabft/internal/core"
	"tetrabft/internal/sim"
	"tetrabft/internal/types"
)

// memPersister records every snapshot in memory; fail makes Persist error.
type memPersister struct {
	states []PersistentState
	fail   bool
}

func (m *memPersister) Persist(s PersistentState) error {
	if m.fail {
		return errors.New("disk gone")
	}
	s.Slots = append([]SlotPersist(nil), s.Slots...) // the node reuses the array
	m.states = append(m.states, s)
	return nil
}

func (m *memPersister) last() PersistentState { return m.states[len(m.states)-1] }

func TestPersistentStateRoundTrip(t *testing.T) {
	var votes core.VoteState
	votes.Record(1, 3, "a")
	votes.Record(2, 2, "b")
	want := PersistentState{
		Finalized: 7,
		FinalHead: types.Block{Slot: 7}.ID(),
		Slots: []SlotPersist{
			{Slot: 8, View: 2, HighestVC: 3, Votes: votes},
			{Slot: 9, View: 1, HighestVC: 1},
			{Slot: 11, View: 0, HighestVC: 0},
		},
	}
	data, err := want.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got PersistentState
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip:\n got %+v\nwant %+v", got, want)
	}
}

func TestPersistentStateRejectsCorrupt(t *testing.T) {
	st := PersistentState{
		Finalized: 2,
		Slots:     []SlotPersist{{Slot: 3, View: 1}},
	}
	data, err := st.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":     {},
		"truncated": data[:len(data)-3],
		"trailing":  append(append([]byte{}, data...), 0x00),
	}
	for name, bad := range cases {
		var out PersistentState
		if err := out.UnmarshalBinary(bad); err == nil {
			t.Errorf("%s input decoded without error", name)
		}
	}
	// Slots out of order must be rejected too.
	dup := PersistentState{Slots: []SlotPersist{{Slot: 3}, {Slot: 3}}}
	raw, err := dup.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var out PersistentState
	if err := out.UnmarshalBinary(raw); err == nil {
		t.Error("duplicate slot order decoded without error")
	}
}

// TestPersistFootprintConstant: the durable state stays constant-size no
// matter how long the finalized chain grows (the multi-shot analogue of
// Table 1's storage column).
func TestPersistFootprintConstant(t *testing.T) {
	const maxSlot = 23
	const inFlight = 5 // the ≤5-deep pipeline window of PersistentState
	r := sim.New(sim.Config{Seed: 1})
	stores := make([]*memPersister, 4)
	nodes := make([]*Node, 4)
	for i := range nodes {
		stores[i] = &memPersister{}
		p := stores[i]
		nodes[i] = addNode(t, r, types.NodeID(i), 4, maxSlot, func(c *Config) { c.Persist = p })
	}
	if err := r.Run(2000, nil); err != nil {
		t.Fatal(err)
	}
	for i, n := range nodes {
		if n.FinalizedSlot() != maxSlot-3 {
			t.Fatalf("node %d finalized %d, want %d", i, n.FinalizedSlot(), maxSlot-3)
		}
		if len(stores[i].states) == 0 {
			t.Fatalf("node %d never persisted", i)
		}
		max := 0
		for _, s := range stores[i].states {
			if sz := s.PersistentSize(); sz > max {
				max = sz
			}
		}
		if max > 1024 {
			t.Errorf("node %d durable footprint peaked at %d bytes; must stay constant-bounded", i, max)
		}
		// The watermark is written with the next vote, not on its own: the
		// last snapshot trails the finalized head by at most the slots that
		// were still in flight when the node last had something to send.
		if got := stores[i].last().Finalized; got > n.FinalizedSlot() || got < n.FinalizedSlot()-inFlight {
			t.Errorf("node %d last snapshot finalized=%d, want within %d below the head %d", i, got, inFlight, n.FinalizedSlot())
		}
	}
}

// TestRestoreRejoinsAndCatchesUp: a node restored from its snapshot calls
// for a view change as its catch-up request, never re-votes a pre-crash
// vote, and adopts the finalized prefix from f+1 finality claims.
func TestRestoreRejoinsAndCatchesUp(t *testing.T) {
	const maxSlot = 11
	r := sim.New(sim.Config{Seed: 1})
	store := &memPersister{}
	nodes := make([]*Node, 4)
	for i := range nodes {
		var opts []func(*Config)
		if i == 1 {
			opts = append(opts, func(c *Config) { c.Persist = store })
		}
		nodes[i] = addNode(t, r, types.NodeID(i), 4, maxSlot, opts...)
	}
	if err := r.Run(2000, nil); err != nil {
		t.Fatal(err)
	}
	target := types.Slot(maxSlot - 3)
	if nodes[1].FinalizedSlot() != target {
		t.Fatalf("node 1 finalized %d, want %d", nodes[1].FinalizedSlot(), target)
	}

	// "Crash" node 1 and rebuild it from its last snapshot.
	restored, err := Restore(Config{ID: 1, Nodes: 4, Delta: 10, MaxSlot: maxSlot}, store.last())
	if err != nil {
		t.Fatal(err)
	}
	env := &recordEnv{}
	restored.Start(env)
	// The rejoin must broadcast a view-change (the catch-up request): the
	// finalized prefix is not persisted, so it targets slot 1.
	foundVC := false
	for _, m := range env.broadcasts() {
		if vc, ok := m.(types.MSViewChange); ok {
			foundVC = true
			if vc.Slot != 1 {
				t.Errorf("rejoin view-change targets slot %d, want 1", vc.Slot)
			}
		}
	}
	if !foundVC {
		t.Error("restored node did not broadcast a view-change on Start")
	}

	// Peers answer with finality claims; f+1 matching claims (f=1 → 2)
	// let the restored node re-adopt the chain slot by slot.
	chain := nodes[0].FinalizedChain()
	for _, b := range chain {
		restored.Deliver(env, 0, types.MSFinal{Block: b})
		restored.Deliver(env, 2, types.MSFinal{Block: b})
	}
	if restored.FinalizedSlot() != target {
		t.Fatalf("restored node re-finalized %d slots, want %d", restored.FinalizedSlot(), target)
	}
	want := nodes[0].FinalizedChain()
	got := restored.FinalizedChain()
	for i := range want {
		if got[i].ID() != want[i].ID() {
			t.Fatalf("restored chain diverges at slot %d", i+1)
		}
	}
}

// TestRestoredNodeNeverDoubleVotes: the recovered vote history must prevent
// re-voting in a view already voted before the crash (Section 3.1 safety).
func TestRestoredNodeNeverDoubleVotes(t *testing.T) {
	store := &memPersister{}
	node, err := NewNode(Config{ID: 0, Nodes: 4, Persist: store})
	if err != nil {
		t.Fatal(err)
	}
	env := &recordEnv{}
	node.Start(env)
	// Leader of (slot 1, view 0) is node 1; its proposal makes node 0 vote.
	b := types.Block{Slot: 1, Parent: types.ZeroBlockID, Payload: []byte("p")}
	node.Deliver(env, 1, types.MSPropose{View: 0, Block: b})
	if countVotes(env) != 1 {
		t.Fatalf("expected exactly one vote before crash, got %d", countVotes(env))
	}

	restored, err := Restore(Config{ID: 0, Nodes: 4}, store.last())
	if err != nil {
		t.Fatal(err)
	}
	env2 := &recordEnv{}
	restored.Start(env2)
	// Replaying the same proposal (or an equivocating sibling) in the same
	// view must not produce a second vote-1.
	restored.Deliver(env2, 1, types.MSPropose{View: 0, Block: b})
	b2 := types.Block{Slot: 1, Parent: types.ZeroBlockID, Payload: []byte("other")}
	restored.Deliver(env2, 1, types.MSPropose{View: 0, Block: b2})
	if countVotes(env2) != 0 {
		t.Fatalf("restored node re-voted %d times in a pre-crash view", countVotes(env2))
	}
}

// TestHaltOnPersistFailure: a node whose Persister fails must stop before
// sending anything of the failing turn, and ignore all further input. The
// failing turn takes no batch with it: a proposal is assembled after the
// write, so transactions the node cannot propose stay with their source.
func TestHaltOnPersistFailure(t *testing.T) {
	store := &memPersister{fail: true}
	drawn := 0
	batch := func(types.Slot, types.Time) [][]byte {
		drawn++
		return [][]byte{[]byte("tx")}
	}
	// Node 2 leads slot 2: the proposal for slot 1 makes it vote for slot 1
	// and propose slot 2 in the same turn.
	node, err := NewNode(Config{ID: 2, Nodes: 4, Persist: store, Batch: batch})
	if err != nil {
		t.Fatal(err)
	}
	env := &recordEnv{}
	node.Start(env)
	b := types.Block{Slot: 1, Parent: types.ZeroBlockID, Payload: []byte("p")}
	node.Deliver(env, 1, types.MSPropose{View: 0, Block: b})
	if !node.Halted() {
		t.Fatal("node kept running after a failed persist")
	}
	if countVotes(env) != 0 {
		t.Fatalf("halted node broadcast %d votes after the failed persist", countVotes(env))
	}
	// Nothing of the failing turn reaches the Env — the slot-2 proposal it
	// buffered behind the vote is dropped with it.
	if len(env.broadcasts()) != 0 || env.sends() != 0 {
		t.Fatalf("the failing turn released %d broadcasts and %d sends, want none", len(env.broadcasts()), env.sends())
	}
	if drawn != 0 {
		t.Fatalf("the failing turn drew %d batches for a proposal it never sent", drawn)
	}
	// Further deliveries and ticks are no-ops, even with the disk back.
	store.fail = false
	node.Deliver(env, 1, types.MSPropose{View: 0, Block: b})
	node.Deliver(env, 0, types.MSViewChange{Slot: 1, View: 1})
	node.Tick(env, 1)
	if len(env.broadcasts()) != 0 || env.sends() != 0 || len(store.states) != 0 || drawn != 0 {
		t.Error("halted node still emits messages, writes or draws batches")
	}
}

func TestRestoreRejectsBadState(t *testing.T) {
	cfg := Config{ID: 0, Nodes: 4}
	if _, err := Restore(cfg, PersistentState{Slots: []SlotPersist{{Slot: 2}, {Slot: 2}}}); err == nil {
		t.Error("Restore accepted out-of-order slots")
	}
	if _, err := Restore(cfg, PersistentState{Slots: []SlotPersist{{Slot: 0}}}); err == nil {
		t.Error("Restore accepted slot 0")
	}
	if _, err := Restore(cfg, PersistentState{Slots: []SlotPersist{{Slot: 1, View: -1}}}); err == nil {
		t.Error("Restore accepted a negative view")
	}
}

// referenceMarshal is the encoding as it was written before AppendBinary
// existed — grown from nil, one temporary slice per slot — kept as the
// oracle the single-allocation encoder is compared against byte for byte.
func referenceMarshal(p PersistentState) []byte {
	ref := func(buf []byte, r types.VoteRef) []byte {
		if !r.Valid {
			return append(buf, 0)
		}
		buf = append(buf, 1)
		buf = binary.AppendVarint(buf, int64(r.View))
		buf = binary.AppendUvarint(buf, uint64(len(r.Val)))
		return append(buf, r.Val...)
	}
	var buf []byte
	buf = binary.AppendVarint(buf, int64(p.Finalized))
	buf = append(buf, p.FinalHead[:]...)
	buf = binary.AppendUvarint(buf, uint64(len(p.Slots)))
	for _, s := range p.Slots {
		var inner []byte
		inner = binary.AppendVarint(inner, int64(s.View))
		inner = binary.AppendVarint(inner, int64(s.HighestVC))
		for _, r := range []types.VoteRef{s.Votes.Vote1, s.Votes.PrevVote1, s.Votes.Vote2, s.Votes.PrevVote2, s.Votes.Vote3, s.Votes.Vote4} {
			inner = ref(inner, r)
		}
		buf = binary.AppendVarint(buf, int64(s.Slot))
		buf = binary.AppendUvarint(buf, uint64(len(inner)))
		buf = append(buf, inner...)
	}
	return buf
}

// randomPersistentState draws a state with the given number of slots. Refs
// are invalid (never voted) about a third of the time; valid ones carry
// block-ID-sized values, an occasional odd length, and views wide enough to
// cross varint byte boundaries.
func randomPersistentState(rng *rand.Rand, slots int) PersistentState {
	view := func() types.View { return types.View(rng.Int63n(1 << uint(1+rng.Intn(40)))) }
	ref := func() types.VoteRef {
		if rng.Intn(3) == 0 {
			return types.VoteRef{}
		}
		val := make([]byte, 32)
		if rng.Intn(8) == 0 {
			val = make([]byte, rng.Intn(200))
		}
		rng.Read(val)
		return types.Vote(view(), types.Value(val))
	}
	p := PersistentState{Finalized: types.Slot(rng.Int63n(1 << uint(1+rng.Intn(40))))}
	rng.Read(p.FinalHead[:])
	slot := p.Finalized
	for i := 0; i < slots; i++ {
		slot += 1 + types.Slot(rng.Intn(3))
		p.Slots = append(p.Slots, SlotPersist{
			Slot: slot, View: view(), HighestVC: view(),
			Votes: core.VoteState{Vote1: ref(), PrevVote1: ref(), Vote2: ref(), PrevVote2: ref(), Vote3: ref(), Vote4: ref()},
		})
	}
	return p
}

// TestPersistEncodingMatchesReference: MarshalBinary, AppendBinary and the
// analytic PersistentSize agree with the reference encoding on the empty
// state, on a full catch-up window of slots, on slots that never voted, and
// on seeded random states in between.
func TestPersistEncodingMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	states := []PersistentState{
		{},
		{Finalized: 9, Slots: []SlotPersist{{Slot: 10}, {Slot: 11}}}, // all refs invalid
		randomPersistentState(rng, slotRingLen),                      // more than a node can hold in flight
	}
	for i := 0; i < 300; i++ {
		states = append(states, randomPersistentState(rng, rng.Intn(9)))
	}
	for i, p := range states {
		want := referenceMarshal(p)
		got, err := p.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("state %d: MarshalBinary differs from the reference encoding", i)
		}
		if p.PersistentSize() != len(want) || cap(got) != len(want) {
			t.Fatalf("state %d: PersistentSize %d, cap %d, encoded %d bytes", i, p.PersistentSize(), cap(got), len(want))
		}
		appended, err := p.AppendBinary([]byte("prefix"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(appended, append([]byte("prefix"), want...)) {
			t.Fatalf("state %d: AppendBinary differs from the reference encoding", i)
		}
		var back PersistentState
		if err := back.UnmarshalBinary(got); err != nil {
			t.Fatalf("state %d: %v", i, err)
		}
	}
}

// FuzzPersistentState faces UnmarshalBinary with arbitrary bytes — what
// wal.MultiWAL.Load hands over once a record passes its CRC check, and which
// reach core.PersistentState.UnmarshalBinary slot by slot. It never panics,
// and whatever it accepts re-encodes to exactly PersistentSize bytes that
// decode to the same state.
func FuzzPersistentState(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	for _, p := range []PersistentState{
		{},
		{Finalized: 9, Slots: []SlotPersist{{Slot: 10}, {Slot: 11}}},
		randomPersistentState(rng, 1),
		randomPersistentState(rng, 5),
	} {
		data, err := p.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte{})
	f.Add([]byte{0x80, 0x80, 0x80})
	f.Fuzz(func(t *testing.T, data []byte) {
		var st PersistentState
		if st.UnmarshalBinary(data) != nil {
			return
		}
		enc, err := st.MarshalBinary()
		if err != nil {
			t.Fatalf("accepted state %+v does not encode: %v", st, err)
		}
		if len(enc) != st.PersistentSize() {
			t.Fatalf("accepted state encodes to %d bytes, PersistentSize says %d", len(enc), st.PersistentSize())
		}
		var back PersistentState
		if err := back.UnmarshalBinary(enc); err != nil {
			t.Fatalf("re-encoded state does not decode: %v", err)
		}
		if !reflect.DeepEqual(back, st) {
			t.Fatalf("round trip changed the state:\n got %+v\nwant %+v", back, st)
		}
	})
}

// TestPersistEncodeAllocs pins the persist path's allocations: encoding a
// snapshot is one allocation (the slice the Persister keeps), appending to a
// buffer that fits is none, and a node's per-turn snapshot reuses its
// scratch. The CI perf job runs this by name.
func TestPersistEncodeAllocs(t *testing.T) {
	p := randomPersistentState(rand.New(rand.NewSource(3)), 6)
	if got := testing.AllocsPerRun(200, func() {
		if _, err := p.MarshalBinary(); err != nil {
			t.Fatal(err)
		}
	}); got > 1 {
		t.Errorf("MarshalBinary allocates %.1f times, want at most 1", got)
	}
	buf := make([]byte, 0, p.PersistentSize())
	if got := testing.AllocsPerRun(200, func() {
		if _, err := p.AppendBinary(buf); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("AppendBinary into a buffer that fits allocates %.1f times, want 0", got)
	}

	node, err := NewNode(Config{ID: 0, Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	env := &recordEnv{}
	node.Start(env)
	b1 := types.Block{Slot: 1, Parent: types.ZeroBlockID, Payload: []byte("b1")}
	node.Deliver(env, node.Leader(1, 0), types.MSPropose{View: 0, Block: b1})
	node.persistView() // sizes the scratch
	if got := testing.AllocsPerRun(200, func() { node.persistView() }); got != 0 {
		t.Errorf("the per-turn snapshot allocates %.1f times, want 0", got)
	}
	if snap := node.Snapshot(); len(snap.Slots) == 0 || &snap.Slots[0] == &node.persistView().Slots[0] {
		t.Error("Snapshot must return slots of its own, not the node's scratch")
	}
}
