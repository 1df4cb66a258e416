package multishot

import (
	"fmt"
	"testing"

	"tetrabft/internal/sim"
	"tetrabft/internal/types"
)

// TestWindowGatesOptimisticProposals pins the Window semantics at the unit
// level. The leader of slot 3 holds proposals for slots 1 and 2 but no
// votes: slot 2's proposal is unnotarized. Window=1 (the paper's rule)
// forbids proposing on top of it; Window=2 allows one optimistic hop.
// Voting rules are window-independent: even the proposing node must not
// vote for slot 2 or 3 until notarizations arrive.
func TestWindowGatesOptimisticProposals(t *testing.T) {
	for _, tc := range []struct {
		window      int
		wantPropose bool
	}{
		{window: 0, wantPropose: false}, // default = 1
		{window: 1, wantPropose: false},
		{window: 2, wantPropose: true},
	} {
		n, err := NewNode(Config{ID: 3, Nodes: 4, Window: tc.window})
		if err != nil {
			t.Fatal(err)
		}
		env := &recordEnv{}
		n.Start(env)
		b1 := types.Block{Slot: 1, Parent: types.ZeroBlockID, Payload: []byte("b1")}
		b2 := types.Block{Slot: 2, Parent: b1.ID(), Payload: []byte("b2")}
		n.Deliver(env, n.Leader(1, 0), types.MSPropose{View: 0, Block: b1})
		n.Deliver(env, n.Leader(2, 0), types.MSPropose{View: 0, Block: b2})
		proposed3 := false
		for _, p := range broadcastsOf[types.MSPropose](env) {
			if p.Block.Slot == 3 {
				proposed3 = true
				if p.Block.Parent != b2.ID() {
					t.Errorf("window=%d: slot-3 proposal does not extend b2", tc.window)
				}
			}
		}
		if proposed3 != tc.wantPropose {
			t.Errorf("window=%d: proposed slot 3 = %v, want %v", tc.window, proposed3, tc.wantPropose)
		}
		// Safety invariant: votes never outrun notarization, whatever the
		// window. Node 3 votes for slot 1 (genesis anchor) only.
		for _, v := range broadcastsOf[types.MSVote](env) {
			if v.Slot > 1 {
				t.Errorf("window=%d: voted for slot %d with an unnotarized parent", tc.window, v.Slot)
			}
		}
	}
}

// TestWindowedPipelineUnderVoteLag runs full clusters where the vote
// stream addressed to each upcoming pipeline leader arrives 6 ticks late
// (everyone else hears votes on time). Under the paper's Window=1 rule
// that leader cannot propose slot s+2 until its delayed notarization of
// slot s lands, so the whole pipeline crawls at the lag rate; a deeper
// window lets it anchor on the proposal chain instead and the quorum of
// punctual voters keeps notarization at full speed. Both runs must stay
// safe; the deeper window must finalize strictly more.
func TestWindowedPipelineUnderVoteLag(t *testing.T) {
	lag := adversaryFunc(func(_, to types.NodeID, msg types.Message, _ types.Time) sim.Verdict {
		if v, ok := msg.(types.MSVote); ok && int64(to) == (int64(v.Slot)+2)%4 {
			return sim.Verdict{ExtraDelay: 6}
		}
		return sim.Verdict{}
	})
	finalizedAt := func(window int) types.Slot {
		r := sim.New(sim.Config{Seed: 1, Adversary: lag})
		nodes := make([]*Node, 4)
		for i := range nodes {
			nodes[i] = addNode(t, r, types.NodeID(i), 4, 40,
				func(c *Config) { c.Window = window })
		}
		if err := r.Run(150, nil); err != nil {
			t.Fatal(err)
		}
		if err := r.AgreementViolation(); err != nil {
			t.Fatalf("window=%d: %v", window, err)
		}
		checkChains(t, nodes)
		return nodes[0].FinalizedSlot()
	}
	w1 := finalizedAt(1)
	w4 := finalizedAt(4)
	if w4 <= w1 {
		t.Errorf("window=4 finalized %d slots vs %d for window=1; deeper pipelining should win under per-leader vote lag", w4, w1)
	}
}

// TestBatchedBlocksFinalize: with a Batch source attached, finalized blocks
// carry the offered transactions, all nodes agree on the batched chain, and
// the per-slot batches survive hashing/wire transport intact.
func TestBatchedBlocksFinalize(t *testing.T) {
	const maxSlot = 11
	batch := func(slot types.Slot, _ types.Time) [][]byte {
		return [][]byte{
			[]byte(fmt.Sprintf("tx-%d-a", slot)),
			[]byte(fmt.Sprintf("tx-%d-b", slot)),
		}
	}
	r := sim.New(sim.Config{Seed: 1})
	nodes := make([]*Node, 4)
	for i := range nodes {
		nodes[i] = addNode(t, r, types.NodeID(i), 4, maxSlot,
			func(c *Config) { c.Batch = batch })
	}
	if err := r.Run(2000, nil); err != nil {
		t.Fatal(err)
	}
	if err := r.AgreementViolation(); err != nil {
		t.Fatal(err)
	}
	checkChains(t, nodes)
	for _, n := range nodes {
		chain := n.FinalizedChain()
		if len(chain) != maxSlot-3 {
			t.Fatalf("node %d finalized %d batched slots, want %d", n.ID(), len(chain), maxSlot-3)
		}
		for _, b := range chain {
			if b.NumTxs() != 2 {
				t.Errorf("node %d slot %d carries %d txs, want 2", n.ID(), b.Slot, b.NumTxs())
			}
			if want := fmt.Sprintf("tx-%d-a", b.Slot); string(b.Txs[0]) != want {
				t.Errorf("node %d slot %d tx[0] = %q, want %q", n.ID(), b.Slot, b.Txs[0], want)
			}
		}
	}
}

// TestBatchedWindowedPipeline combines both knobs at once on a lossy
// network: batches ride the optimistic pipeline without breaking agreement.
func TestBatchedWindowedPipeline(t *testing.T) {
	batch := func(slot types.Slot, _ types.Time) [][]byte {
		return [][]byte{[]byte(fmt.Sprintf("tx-%d", slot))}
	}
	r := sim.New(sim.Config{
		Seed:          7,
		GST:           100,
		DropBeforeGST: 0.5,
		Delay:         sim.UniformDelay{Min: 1, Max: 5},
	})
	nodes := make([]*Node, 4)
	for i := range nodes {
		nodes[i] = addNode(t, r, types.NodeID(i), 4, 10,
			func(c *Config) { c.Batch = batch; c.Window = 3 })
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
			t.Fatalf("node %d finalized only %d batched+windowed slots", n.ID(), n.FinalizedSlot())
		}
	}
}

// lookupAudit runs its node's turns one at a time (the simulator does) and
// checks the block-table lookups each turn makes against what the turn can
// justify; countLookups records every node's into looked.
type lookupAudit struct {
	*Node
	t                   *testing.T
	looked              *[]types.BlockID
	lookups, deliveries *int
}

func (a lookupAudit) Start(env types.Env) { a.turn(env, nil, func(e types.Env) { a.Node.Start(e) }) }

func (a lookupAudit) Tick(env types.Env, id types.TimerID) {
	a.turn(env, nil, func(e types.Env) { a.Node.Tick(e, id) })
}

func (a lookupAudit) Deliver(env types.Env, from types.NodeID, msg types.Message) {
	*a.deliveries++
	a.turn(env, msg, func(e types.Env) { a.Node.Deliver(e, from, msg) })
}

// turn runs one turn. The delivered message's block ID is resolved at most
// once, except that a fresh proposal built on that block links to it once
// more. A vote makes one lookup and a proposal two (its ID and its parent's);
// each fresh proposal the turn broadcasts makes two more.
func (a lookupAudit) turn(env types.Env, msg types.Message, run func(types.Env)) {
	*a.looked = (*a.looked)[:0]
	out := &proposalsOut{Env: env}
	run(out)
	var id types.BlockID
	budget := 2 * len(out.props)
	switch m := msg.(type) {
	case types.MSVote:
		id, budget = m.Block, budget+1
	case types.MSPropose:
		id, budget = m.BlockID(), budget+2
	}
	same := 0
	for _, l := range *a.looked {
		if msg != nil && l == id {
			same++
		}
	}
	for _, p := range out.props {
		if msg != nil && p.Block.Parent == id {
			same--
		}
	}
	if same > 1 {
		a.t.Errorf("node %d resolved the block of a delivered %T %d times", a.ID(), msg, same)
	}
	if len(*a.looked) > budget {
		a.t.Errorf("node %d made %d lookups in a turn that justifies %d (%T, %d fresh proposals)", a.ID(), len(*a.looked), budget, msg, len(out.props))
	}
	*a.lookups += len(*a.looked)
}

// proposalsOut records the proposals a turn broadcasts.
type proposalsOut struct {
	types.Env
	props []types.MSPropose
}

func (e *proposalsOut) Broadcast(msg types.Message) {
	if p, ok := msg.(types.MSPropose); ok {
		e.props = append(e.props, p)
	}
	e.Env.Broadcast(msg)
}

// TestOneLookupPerMessage pins the block table on the n = 16, 240-slot
// pipeline of TestOneHashPerProposedBlock: a delivered message compares its
// block ID against a slot's table once, and everything after walks entries.
// The vote phases, the notarization, the 4-chain search and the finalized
// ancestry look nothing up; a body links to its parent's entry once.
func TestOneLookupPerMessage(t *testing.T) {
	const n, slots = 16, 240
	var looked []types.BlockID
	lookups, deliveries := 0, 0
	defer countLookups(func(id types.BlockID) { looked = append(looked, id) })()
	r := sim.New(sim.Config{Seed: 1})
	nodes := make([]*Node, n)
	for i := range nodes {
		node, err := NewNode(Config{ID: types.NodeID(i), Nodes: n, Delta: 10, MaxSlot: slots + 3,
			Batch: func(s types.Slot, _ types.Time) [][]byte { return [][]byte{[]byte("tx"), {byte(s)}} }})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
		r.Add(lookupAudit{Node: node, t: t, looked: &looked, lookups: &lookups, deliveries: &deliveries})
	}
	err := r.Run(0, func() bool {
		for _, node := range nodes {
			if node.FinalizedSlot() < slots {
				return false
			}
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d lookups over %d deliveries: %.3f per delivery", lookups, deliveries, float64(lookups)/float64(deliveries))
	if lookups < slots*n*n {
		t.Fatalf("%d lookups, fewer than the %d votes of %d slots: the count misses lookups", lookups, slots*n*n, slots)
	}
}
