package multishot

import (
	"testing"

	"tetrabft/internal/quorum"
	"tetrabft/internal/sim"
	"tetrabft/internal/types"
)

// forgedSenders are identities outside a {5, 17, 42, 1000} membership: a
// negative one, a huge one, and one between two members.
var forgedSenders = []types.NodeID{-1, 1 << 40, 20}

func TestMemberIndex(t *testing.T) {
	dense := newMemberIndex([]types.NodeID{0, 1, 2, 3})
	if dense.idx != nil {
		t.Error("members 0..n−1 built a lookup map")
	}
	for id, want := range map[types.NodeID]bool{0: true, 3: true, -1: false, 4: false, 1 << 40: false} {
		if pos, ok := dense.of(id); ok != want || (ok && pos != int(id)) {
			t.Errorf("dense.of(%d) = %d, %v", id, pos, ok)
		}
	}
	// Positions follow the membership's order, whatever order the IDs are in.
	sparse := newMemberIndex([]types.NodeID{1000, 5, 17, 1})
	for id, want := range map[types.NodeID]int{1000: 0, 5: 1, 17: 2, 1: 3} {
		if pos, ok := sparse.of(id); !ok || pos != want {
			t.Errorf("sparse.of(%d) = %d, %v, want %d", id, pos, ok, want)
		}
	}
	for _, id := range append([]types.NodeID{0, 2, 6, 999, 1001}, forgedSenders...) {
		if pos, ok := sparse.of(id); ok {
			t.Errorf("non-member %d found at %d", id, pos)
		}
	}
}

// sparseSlices is a four-member Slices system over user-chosen IDs in which
// every node's slices are the 3-member subsets (f = 1, like Threshold(4)).
func sparseSlices(t *testing.T, ids []types.NodeID) *quorum.Slices {
	t.Helper()
	var slices []quorum.Set
	for skip := range ids {
		s := quorum.NewSet()
		for i, id := range ids {
			if i != skip {
				s.Add(id)
			}
		}
		slices = append(slices, s)
	}
	all := make(map[types.NodeID][]quorum.Set, len(ids))
	for _, id := range ids {
		all[id] = slices
	}
	qs, err := quorum.NewSlices(all)
	if err != nil {
		t.Fatal(err)
	}
	return qs
}

// TestSparseMemberIDs: a membership of non-contiguous IDs, added to the
// simulator out of order, runs the pipeline to finalization, and senders
// outside it never move a vote tally or a view-change set.
func TestSparseMemberIDs(t *testing.T) {
	ids := []types.NodeID{42, 1000, 5, 17}
	qs := sparseSlices(t, ids)
	const maxSlot = 12
	r := sim.New(sim.Config{Seed: 1})
	var nodes []*Node
	for _, id := range ids {
		n, err := NewNode(Config{ID: id, Quorum: qs, Delta: 10, MaxSlot: maxSlot})
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
		r.Add(n)
	}
	if err := r.Run(3000, nil); err != nil {
		t.Fatal(err)
	}
	if err := r.AgreementViolation(); err != nil {
		t.Fatal(err)
	}
	checkChains(t, nodes)
	for _, n := range nodes {
		if n.FinalizedSlot() != maxSlot-3 {
			t.Fatalf("node %d finalized %d slots, want %d", n.ID(), n.FinalizedSlot(), maxSlot-3)
		}
		if _, ok := r.Decision(n.ID(), maxSlot-3); !ok {
			t.Fatalf("simulator holds no decision for node %d", n.ID())
		}
	}

	n, err := NewNode(Config{ID: 5, Quorum: qs, Delta: 10})
	if err != nil {
		t.Fatal(err)
	}
	env := &recordEnv{}
	n.Start(env)
	block := types.Block{Slot: 1, Payload: []byte("b")}.ID()
	deliver := func(from types.NodeID) {
		n.Deliver(env, from, types.MSVote{Slot: 1, View: 0, Block: block})
		n.Deliver(env, from, types.MSViewChange{Slot: 1, View: 1})
	}
	counts := func() (votes, vcs int) {
		st := n.peekSlot(1)
		for _, b := range st.blocks {
			if b.voted {
				votes += n.votesOf(b, b.view0).Count()
			}
			for _, tl := range b.votes {
				votes += tl.bits.Count()
			}
		}
		if vr := st.recIf(1); vr != nil {
			vcs = vr.vcVotes.Count()
		}
		return votes, vcs
	}
	for _, from := range forgedSenders {
		deliver(from)
		if votes, vcs := counts(); votes != 0 || vcs != 0 {
			t.Fatalf("non-member %d moved a tally: %d votes, %d view-change calls", from, votes, vcs)
		}
	}
	deliver(1000) // a member moves both: the check above has teeth
	if votes, vcs := counts(); votes != 1 || vcs != 1 {
		t.Fatalf("member moved %d votes and %d view-change calls, want 1 and 1", votes, vcs)
	}
}

// TestNonMembersLeaveNoState: a suggest, a proof and a finality claim from a
// sender outside the membership each leave no entry behind (no slot record,
// no suggest or proof history, no claim, no stored body) and send nothing.
// The same three messages from a member do leave entries.
func TestNonMembersLeaveNoState(t *testing.T) {
	const node = 2 // leads (slot 1, view 1) of four, so it keeps suggests for it
	final := types.Block{Slot: 1, Payload: []byte("claimed")}
	msgs := []types.Message{
		types.MSSuggest{Slot: 1, View: 1},
		types.MSProof{Slot: 1, View: 1},
		types.MSFinal{Block: final},
	}
	for _, from := range []types.NodeID{99, -1, 4} {
		n, err := NewNode(Config{ID: node, Nodes: 4})
		if err != nil {
			t.Fatal(err)
		}
		env := &recordEnv{}
		for _, m := range msgs {
			n.Deliver(env, from, m)
		}
		if st := n.peekSlot(1); st != nil {
			t.Errorf("sender %d: created a slot record with %d views", from, len(st.views))
		}
		if len(n.claims) != 0 {
			t.Errorf("sender %d: %d claim slots stored", from, len(n.claims))
		}
		if env.sends() != 0 || len(env.broadcasts()) != 0 {
			t.Errorf("sender %d: %d sends and %d broadcasts", from, env.sends(), len(env.broadcasts()))
		}
	}

	n, err := NewNode(Config{ID: node, Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range msgs {
		n.Deliver(&recordEnv{}, 1, m)
	}
	vr := n.peekSlot(1).recIf(1)
	if _, ok := vr.suggests[1]; !ok {
		t.Error("a member's suggest left no entry")
	}
	if _, ok := vr.proofs[1]; !ok {
		t.Error("a member's proof left no entry")
	}
	if n.claims[1][1] != final.ID() {
		t.Error("a member's finality claim left no entry")
	}
}

// TestNotarizedParentCache: a body's entry links to its parent's entry once
// both are known, whichever arrives second, and childNotarizedOf answers from
// that handle. A notarized entry whose body is unknown is skipped, not taken
// for the end of the scan; releasing the parent's slot drops the handles
// into it.
func TestNotarizedParentCache(t *testing.T) {
	n, err := NewNode(Config{ID: 0, Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	b1 := types.Block{Slot: 1, Payload: []byte("b1")}
	b2 := types.Block{Slot: 2, Parent: b1.ID(), Payload: []byte("b2")}
	unseen := types.Block{Slot: 2, Parent: b1.ID(), Payload: []byte("b2'")}
	for i := 0; unseen.ID().Value() > b2.ID().Value(); i++ {
		unseen.Payload = append(unseen.Payload, byte(i)) // the unseen entry must be scanned first
	}
	st2 := n.slot(2)
	for _, id := range []types.BlockID{b2.ID(), unseen.ID()} {
		n.entry(st2, id).notarized = true
	}
	n.keepBody(b2.ID(), "", &b2) // the child's body first: slot 1 holds nothing yet
	e1 := n.entry(n.slot(1), b1.ID())
	if got := n.childNotarizedOf(2, e1); got == nil || got.id != b2.ID() {
		t.Fatal("child not found once its parent's entry arrived")
	}
	if other := n.entry(n.slot(1), types.Block{Slot: 1, Payload: []byte("b1'")}.ID()); n.childNotarizedOf(2, other) != nil {
		t.Fatal("matched a parent the block does not name")
	}
	if st2.lookup(unseen.ID()).parent != nil {
		t.Fatal("an entry without a body has a parent")
	}
	b3 := types.Block{Slot: 3, Parent: b2.ID(), Payload: []byte("b3")}
	n.keepBody(b3.ID(), "", &b3) // the parent's entry first
	if e2 := st2.lookup(b2.ID()); n.childNotarizedOf(3, e2) != nil || n.slot(3).lookup(b3.ID()).parent != e2 {
		t.Fatal("a body arriving after its parent's entry was not linked to it, or an unnotarized child was found")
	}
	n.finalized = 1
	n.releaseSlot(1)
	if st2.lookup(b2.ID()).parent != nil {
		t.Fatal("releasing slot 1 left a handle into it")
	}
}
