package multishot

import (
	"fmt"
	"testing"

	"tetrabft/internal/byz"
	"tetrabft/internal/sim"
	"tetrabft/internal/trace"
	"tetrabft/internal/types"
)

func addNode(t *testing.T, r *sim.Runner, id types.NodeID, n int, maxSlot types.Slot, opts ...func(*Config)) *Node {
	t.Helper()
	cfg := Config{ID: id, Nodes: n, Delta: 10, MaxSlot: maxSlot}
	for _, o := range opts {
		o(&cfg)
	}
	node, err := NewNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.Add(node)
	return node
}

// checkChains verifies pairwise prefix consistency (Definition 2) and
// per-chain hash linkage across the given nodes.
func checkChains(t *testing.T, nodes []*Node) {
	t.Helper()
	for _, n := range nodes {
		chain := n.FinalizedChain()
		prev := types.ZeroBlockID
		for i, b := range chain {
			if b.Slot != types.Slot(i+1) {
				t.Fatalf("node %d chain: block %d has slot %d", n.ID(), i, b.Slot)
			}
			if b.Parent != prev {
				t.Fatalf("node %d chain: slot %d does not extend its parent", n.ID(), b.Slot)
			}
			prev = b.ID()
		}
	}
	for i := 0; i < len(nodes); i++ {
		for j := i + 1; j < len(nodes); j++ {
			a, b := nodes[i].FinalizedChain(), nodes[j].FinalizedChain()
			short := len(a)
			if len(b) < short {
				short = len(b)
			}
			for k := 0; k < short; k++ {
				if a[k].ID() != b[k].ID() {
					t.Fatalf("nodes %d and %d disagree at slot %d", nodes[i].ID(), nodes[j].ID(), k+1)
				}
			}
		}
	}
}

// TestGoodCasePipeline reproduces Figure 2: with honest leaders and unit
// delays the pipeline finalizes one block per message delay, slot k at
// t = k+4.
func TestGoodCasePipeline(t *testing.T) {
	const maxSlot = 23
	const target = maxSlot - 3 // 20 finalizable slots
	r := sim.New(sim.Config{Seed: 1})
	nodes := make([]*Node, 4)
	for i := range nodes {
		nodes[i] = addNode(t, r, types.NodeID(i), 4, maxSlot)
	}
	if err := r.Run(2000, nil); err != nil {
		t.Fatal(err)
	}
	if err := r.AgreementViolation(); err != nil {
		t.Fatal(err)
	}
	checkChains(t, nodes)
	for _, n := range nodes {
		if n.FinalizedSlot() != target {
			t.Fatalf("node %d finalized %d slots, want %d", n.ID(), n.FinalizedSlot(), target)
		}
	}
	// Figure 2's shape: slot k finalizes at t = k+4, one block per delay.
	for k := types.Slot(1); k <= target; k++ {
		d, ok := r.Decision(0, k)
		if !ok {
			t.Fatalf("slot %d not decided", k)
		}
		if d.At != types.Time(k)+4 {
			t.Errorf("slot %d finalized at t=%d, want %d", k, d.At, int64(k)+4)
		}
	}
}

// TestFinalizePathPinsNothing: finalizePrefix reuses one scratch for the
// ancestry it walks, and leaves it cleared, so no finalized or abandoned
// block body stays reachable through it, nor through the records that
// finalized slots returned to the free lists.
func TestFinalizePathPinsNothing(t *testing.T) {
	r := sim.New(sim.Config{Seed: 1})
	nodes := make([]*Node, 4)
	for i := range nodes {
		nodes[i] = addNode(t, r, types.NodeID(i), 4, 23)
	}
	if err := r.Run(2000, nil); err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		if cap(n.path) == 0 {
			t.Fatalf("node %d never used the path scratch", n.ID())
		}
		for i, e := range n.path[:cap(n.path)] {
			if e != nil {
				t.Fatalf("node %d: path scratch cell %d still holds block %v", n.ID(), i, e.id)
			}
		}
		for i, st := range n.freeSlots {
			for _, e := range st.blocks {
				if e.body.Payload != nil || e.body.Txs != nil {
					t.Fatalf("node %d: free slot record %d still holds block %v", n.ID(), i, e.id)
				}
			}
		}
	}
}

// TestPipelineBoundedInFlight checks the Section 6.2 bound: at most ~5
// blocks are in flight (started but unfinalized) at any instant.
func TestPipelineBoundedInFlight(t *testing.T) {
	r := sim.New(sim.Config{Seed: 1})
	nodes := make([]*Node, 4)
	for i := range nodes {
		nodes[i] = addNode(t, r, types.NodeID(i), 4, 40)
	}
	maxInFlight := 0
	err := r.Run(2000, func() bool {
		for _, n := range nodes {
			inFlight := int(n.maxSlot - n.finalized)
			if n.finalized == 0 {
				inFlight = int(n.maxSlot) // warm-up window
			}
			if inFlight > maxInFlight {
				maxInFlight = inFlight
			}
		}
		return false
	})
	if err != nil {
		t.Fatal(err)
	}
	if maxInFlight > 6 {
		t.Errorf("in-flight window reached %d slots; the paper bounds aborted blocks by 5", maxInFlight)
	}
}

// TestSilentLeaderRecovery reproduces Figure 3: a crashed node leads every
// 4th slot; those slots stall at view 0, the 9Δ timers fire, a per-slot
// view change re-proposes the aborted window, and the chain keeps growing.
func TestSilentLeaderRecovery(t *testing.T) {
	const maxSlot = 9
	const target = maxSlot - 3
	log := &trace.Log{}
	r := sim.New(sim.Config{Seed: 1})
	nodes := make([]*Node, 0, 3)
	for i := 0; i < 4; i++ {
		if i == 3 {
			r.Add(byz.Silent{NodeID: 3})
			continue
		}
		nodes = append(nodes, addNode(t, r, types.NodeID(i), 4, maxSlot,
			func(c *Config) { c.Tracer = log }))
	}
	if err := r.Run(3000, nil); err != nil {
		t.Fatal(err)
	}
	if err := r.AgreementViolation(); err != nil {
		t.Fatal(err)
	}
	checkChains(t, nodes)
	for _, n := range nodes {
		if n.FinalizedSlot() < target {
			t.Fatalf("node %d finalized only %d slots, want %d", n.ID(), n.FinalizedSlot(), target)
		}
	}
	if len(log.Filter("view-change")) == 0 {
		t.Error("no view change was ever triggered despite the silent leader")
	}
	if len(log.Filter("enter-view")) == 0 {
		t.Error("no node entered a higher view")
	}
}

// loseProposal drops every copy of the view-0 proposal for slot s.
func loseProposal(s types.Slot) sim.Adversary {
	return adversaryFunc(func(_, _ types.NodeID, msg types.Message, _ types.Time) sim.Verdict {
		p, ok := msg.(types.MSPropose)
		return sim.Verdict{Drop: ok && p.Block.Slot == s && p.View == 0}
	})
}

// TestRecoveryPreservesNotarizedValues: the silent leader strikes after
// slots carrying implicit vote-3/vote-4 history exist; Rule 1 must force
// re-proposing protected blocks so finalized prefixes never fork.
func TestRecoveryPreservesNotarizedValues(t *testing.T) {
	// Deliver everything in view 0 but silence slot-5's leader by making
	// node 0 (leader of slot 5 at view 0: (5+0)%4 = 1... use an adversary
	// dropping slot-5 proposals instead, so votes for earlier slots exist.
	r := sim.New(sim.Config{Seed: 1, Adversary: loseProposal(5)})
	nodes := make([]*Node, 4)
	for i := range nodes {
		nodes[i] = addNode(t, r, types.NodeID(i), 4, 10)
	}
	if err := r.Run(3000, nil); err != nil {
		t.Fatal(err)
	}
	if err := r.AgreementViolation(); err != nil {
		t.Fatal(err)
	}
	checkChains(t, nodes)
	for _, n := range nodes {
		if n.FinalizedSlot() < 7 {
			t.Fatalf("node %d finalized only %d slots", n.ID(), n.FinalizedSlot())
		}
	}
	// Slots 1-2 were deep in the pipeline (implicit vote-3/4 history by the
	// time slot 5 stalled); their view-0 payloads must survive recovery.
	chain := nodes[0].FinalizedChain()
	for _, b := range chain[:2] {
		if string(b.Payload[:8]) != "payload-" {
			t.Errorf("slot %d payload %q does not look like an original view-0 payload", b.Slot, b.Payload)
		}
	}
}

// TestStragglerCatchUp isolates one node while the rest finalize, then
// reconnects it: the finality-claim protocol must bring it to the same
// chain.
func TestStragglerCatchUp(t *testing.T) {
	const isolationEnd = types.Time(400)
	isolate := adversaryFunc(func(from, to types.NodeID, _ types.Message, now types.Time) sim.Verdict {
		if now < isolationEnd && (from == 3 || to == 3) && from != to {
			return sim.Verdict{Drop: true}
		}
		return sim.Verdict{}
	})
	r := sim.New(sim.Config{Seed: 1, Adversary: isolate})
	nodes := make([]*Node, 4)
	for i := range nodes {
		nodes[i] = addNode(t, r, types.NodeID(i), 4, 12)
	}
	if err := r.Run(6000, nil); err != nil {
		t.Fatal(err)
	}
	if err := r.AgreementViolation(); err != nil {
		t.Fatal(err)
	}
	checkChains(t, nodes)
	if got := nodes[3].FinalizedSlot(); got < 5 {
		t.Fatalf("straggler only finalized %d slots after reconnecting", got)
	}
}

// TestAsynchronyThenGSTMultishot runs the pipeline through a lossy
// pre-GST period; after GST the chain must grow with full agreement.
func TestAsynchronyThenGSTMultishot(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := sim.New(sim.Config{
				Seed:          seed,
				GST:           150,
				DropBeforeGST: 0.8,
				Delay:         sim.UniformDelay{Min: 1, Max: 10},
			})
			nodes := make([]*Node, 4)
			for i := range nodes {
				nodes[i] = addNode(t, r, types.NodeID(i), 4, 10)
			}
			if err := r.Run(20000, nil); err != nil {
				t.Fatal(err)
			}
			if err := r.AgreementViolation(); err != nil {
				t.Fatal(err)
			}
			checkChains(t, nodes)
			for _, n := range nodes {
				if n.FinalizedSlot() < 7 {
					t.Fatalf("node %d finalized only %d slots", n.ID(), n.FinalizedSlot())
				}
			}
		})
	}
}

// TestImplicitVoteRecording checks Section 6.3's multi-role votes: one vote
// at slot 4 must record vote-1..vote-4 for slots 4..1 along the chain.
func TestImplicitVoteRecording(t *testing.T) {
	n, err := NewNode(Config{ID: 0, Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	b1 := types.Block{Slot: 1, Parent: types.ZeroBlockID, Payload: []byte("b1")}
	b2 := types.Block{Slot: 2, Parent: b1.ID(), Payload: []byte("b2")}
	b3 := types.Block{Slot: 3, Parent: b2.ID(), Payload: []byte("b3")}
	b4 := types.Block{Slot: 4, Parent: b3.ID(), Payload: []byte("b4")}
	for _, b := range []types.Block{b1, b2, b3, b4} {
		n.keepBody(b.ID(), "", &b) // no proposal held: valueOf converts afresh
	}
	n.recordImplicitVotes(n.slot(4), 0, n.slot(4).lookup(b4.ID()))
	if got := n.slot(4).votes.Vote1; got != types.Vote(0, b4.ID().Value()) {
		t.Errorf("slot 4 vote-1 = %v", got)
	}
	if got := n.slot(3).votes.Vote2; got != types.Vote(0, b3.ID().Value()) {
		t.Errorf("slot 3 vote-2 = %v", got)
	}
	if got := n.slot(2).votes.Vote3; got != types.Vote(0, b2.ID().Value()) {
		t.Errorf("slot 2 vote-3 = %v", got)
	}
	if got := n.slot(1).votes.Vote4; got != types.Vote(0, b1.ID().Value()) {
		t.Errorf("slot 1 vote-4 = %v", got)
	}
}

// TestBlockingClaimRequiresFPlusOne: a single (possibly Byzantine) finality
// claim must never finalize anything; f+1 matching claims must.
func TestBlockingClaimRequiresFPlusOne(t *testing.T) {
	n, err := NewNode(Config{ID: 0, Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	env := &recordEnv{}
	blk := types.Block{Slot: 1, Parent: types.ZeroBlockID, Payload: []byte("x")}
	n.onFinal(env, 3, types.MSFinal{Block: blk})
	if n.FinalizedSlot() != 0 {
		t.Fatal("one claim finalized a slot")
	}
	// A conflicting claim from another node must not count toward it.
	other := types.Block{Slot: 1, Parent: types.ZeroBlockID, Payload: []byte("y")}
	n.onFinal(env, 2, types.MSFinal{Block: other})
	if n.FinalizedSlot() != 0 {
		t.Fatal("two conflicting claims finalized a slot")
	}
	n.onFinal(env, 1, types.MSFinal{Block: blk})
	if n.FinalizedSlot() != 1 {
		t.Fatal("f+1 matching claims did not finalize")
	}
	if got := n.FinalizedChain()[0].ID(); got != blk.ID() {
		t.Errorf("adopted %v, want %v", got, blk.ID())
	}
}

// TestClaimMustExtendFinalHead: claims whose parent linkage is wrong are
// never adopted.
func TestClaimMustExtendFinalHead(t *testing.T) {
	n, err := NewNode(Config{ID: 0, Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	env := &recordEnv{}
	bogusParent := types.Block{Slot: 0, Payload: []byte("nope")}.ID()
	blk := types.Block{Slot: 1, Parent: bogusParent, Payload: []byte("x")}
	n.onFinal(env, 1, types.MSFinal{Block: blk})
	n.onFinal(env, 2, types.MSFinal{Block: blk})
	if n.FinalizedSlot() != 0 {
		t.Fatal("adopted a slot-1 block that does not extend genesis")
	}
}

// TestVoteRejectedWithoutNotarizedParent: Section 6.1 condition 1.
func TestVoteRejectedWithoutNotarizedParent(t *testing.T) {
	n, err := NewNode(Config{ID: 1, Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	env := &recordEnv{}
	n.Start(env)
	b1 := types.Block{Slot: 1, Parent: types.ZeroBlockID, Payload: []byte("b1")}
	b2 := types.Block{Slot: 2, Parent: b1.ID(), Payload: []byte("b2")}
	// Proposal for slot 2 arrives before slot 1 is notarized.
	n.Deliver(env, n.Leader(2, 0), types.MSPropose{View: 0, Block: b2})
	if countVotes(env) != 0 {
		t.Fatalf("voted for a block with an unnotarized parent (%d votes)", countVotes(env))
	}
	// Slot 1 proposal arrives and gets a quorum of votes → slot 2 unblocks.
	n.Deliver(env, n.Leader(1, 0), types.MSPropose{View: 0, Block: b1})
	if countVotes(env) != 1 {
		t.Fatalf("did not vote for slot 1 (%d votes)", countVotes(env))
	}
	for _, from := range []types.NodeID{0, 2, 3} {
		n.Deliver(env, from, types.MSVote{Slot: 1, View: 0, Block: b1.ID()})
	}
	if countVotes(env) != 2 {
		t.Fatalf("did not vote for slot 2 after parent notarization (%d votes)", countVotes(env))
	}
}

// TestMaxSlotStopsProposals: leaders never propose beyond MaxSlot.
func TestMaxSlotStopsProposals(t *testing.T) {
	r := sim.New(sim.Config{Seed: 1})
	nodes := make([]*Node, 4)
	for i := range nodes {
		nodes[i] = addNode(t, r, types.NodeID(i), 4, 6)
	}
	if err := r.Run(1500, nil); err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		if n.maxSlot > 6 {
			t.Errorf("node %d started slot %d beyond MaxSlot 6", n.ID(), n.maxSlot)
		}
		if n.FinalizedSlot() != 3 {
			t.Errorf("node %d finalized %d, want 3 (= MaxSlot−3)", n.ID(), n.FinalizedSlot())
		}
	}
}

type adversaryFunc func(from, to types.NodeID, msg types.Message, now types.Time) sim.Verdict

func (f adversaryFunc) Intercept(from, to types.NodeID, msg types.Message, now types.Time) sim.Verdict {
	return f(from, to, msg, now)
}
