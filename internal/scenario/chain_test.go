package scenario

import (
	"errors"
	"strings"
	"testing"
	"unsafe"

	"tetrabft/internal/types"
)

// pipelineCluster builds the one cluster of an n-node multishot pipeline
// capped at slots + 3 on the simulator, headers only.
func pipelineCluster(t *testing.T, nodes int, slots int64) (*plan, *simCluster) {
	t.Helper()
	p, err := Scenario{Name: "shared-chain", Protocol: TetraBFTMulti, Nodes: nodes, Seed: 1,
		Workload: WorkloadSpec{Slots: slots}, Stop: StopSpec{AllDecided: true}}.compile()
	if err != nil {
		t.Fatal(err)
	}
	cl, err := newSimCluster(p, p.clusters[0], nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return p, cl
}

// chainData is where a finalized chain's blocks live (nil when empty).
func chainData(chain []types.Block) *types.Block {
	if len(chain) == 0 {
		return nil
	}
	return unsafe.SliceData(chain)
}

// TestClusterSharesOneChain: on an n = 16 simulated pipeline every honest
// node's FinalizedChain lies in one backing array, the cluster's, and is as
// long as the node's own finalized slot — checked before every event, while
// the nodes stand at different slots — and holds the blocks every node
// decided, parent-linked from genesis.
func TestClusterSharesOneChain(t *testing.T) {
	const nodes, slots = 16, 240
	_, cl := pipelineCluster(t, nodes, slots)
	var shared *types.Block
	apart := 0 // events before which two nodes stood at different slots
	audit := func() bool {
		low, high := cl.chains[0].FinalizedSlot(), cl.chains[0].FinalizedSlot()
		for _, n := range cl.chains {
			chain := n.FinalizedChain()
			if types.Slot(len(chain)) != n.FinalizedSlot() {
				t.Fatalf("node %d: a chain of %d blocks at finalized slot %d", n.ID(), len(chain), n.FinalizedSlot())
			}
			if p := chainData(chain); p != nil && shared == nil {
				shared = p
			} else if p != nil && p != shared {
				t.Fatalf("node %d keeps its finalized chain apart from the cluster's", n.ID())
			}
			low, high = min(low, n.FinalizedSlot()), max(high, n.FinalizedSlot())
		}
		if low != high {
			apart++
		}
		return false
	}
	if err := cl.r.Run(0, audit); err != nil {
		t.Fatal(err)
	}
	if apart == 0 {
		t.Fatal("the nodes never stood at different finalized slots: the audit compared nothing")
	}
	if cl.record.err != nil {
		t.Fatal(cl.record.err)
	}
	for _, n := range cl.chains {
		chain := n.FinalizedChain()
		if len(chain) != slots {
			t.Fatalf("node %d finalized %d slots, want %d", n.ID(), len(chain), slots)
		}
		parent := types.ZeroBlockID
		for i, b := range chain {
			s := types.Slot(i + 1)
			if b.Slot != s || b.Parent != parent || b.ID().Value() != cl.record.slots[s].val {
				t.Fatalf("node %d: block %d is not the slot-%d block every node decided", n.ID(), i, s)
			}
			parent = b.ID()
		}
	}
}

// TestClusterChainReservedOnce: a simulated cluster reserves its one
// finalized chain when it is built, so on the n = 16, 2,100-slot pipeline
// (the benchmark's shape) the array behind every node's FinalizedChain
// never moves.
func TestClusterChainReservedOnce(t *testing.T) {
	const nodes, slots = 16, 2100
	_, cl := pipelineCluster(t, nodes, slots)
	var first *types.Block
	moves := 0
	audit := func() bool {
		for _, n := range cl.chains {
			if p := chainData(n.FinalizedChain()); p != nil && first == nil {
				first = p
			} else if p != nil && p != first {
				first = p
				moves++
			}
		}
		return false
	}
	if err := cl.r.Run(0, audit); err != nil {
		t.Fatal(err)
	}
	if low := cl.minFinalized(); low != slots {
		t.Fatalf("the cluster finalized %d slots, want %d", low, slots)
	}
	if moves != 0 {
		t.Fatalf("the cluster's chain moved %d times over %d slots; it is reserved once", moves, slots)
	}
}

// claimEnv hands one turn of a node of a simulated cluster in from outside
// the runner: it reads the runner's clock, gives the node's decisions to
// the cluster's commit record and drops what the node sends.
type claimEnv struct {
	cl *simCluster
	id types.NodeID
}

func (e claimEnv) Now() types.Time                      { return e.cl.r.Now() }
func (claimEnv) Send(types.NodeID, types.Message)       {}
func (claimEnv) Broadcast(types.Message)                {}
func (claimEnv) SetTimer(types.TimerID, types.Duration) {}
func (e claimEnv) Decide(slot types.Slot, val types.Value) {
	e.cl.record.decide(e.id, slot, val, e.Now())
}

// TestDivergentNodeForksItsChain: a node that lags the cluster and is then
// fed a different block for its next slot — finality claims from a blocking
// set, f + 1 = 2 of 4 members — goes on with a private copy of the prefix
// below that slot. The other nodes keep sharing the cluster's chain, which
// still holds the block they finalized, and the run fails with ErrAgreement
// naming the slot and the divergent node.
func TestDivergentNodeForksItsChain(t *testing.T) {
	p, cl := pipelineCluster(t, 4, 40)
	lead, lag := cl.chains[0], cl.chains[3]
	behind := func() bool { return lag.FinalizedSlot() >= 2 && lead.FinalizedSlot() > lag.FinalizedSlot() }
	if err := cl.r.Run(0, behind); err != nil {
		t.Fatal(err)
	}
	if !behind() {
		t.Fatal("node 3 never lagged node 0 by a slot")
	}
	s := lag.FinalizedSlot() + 1
	prefix := lag.FinalizedChain()
	forged := types.Block{Slot: s, Parent: prefix[s-2].ID(), Payload: []byte("forged")}
	for _, from := range []types.NodeID{1, 2} {
		lag.Deliver(claimEnv{cl, lag.ID()}, from, types.MSFinal{Block: forged})
	}
	if lag.FinalizedSlot() != s {
		t.Fatalf("node 3 did not adopt the forged block at slot %d", s)
	}
	own := lag.FinalizedChain()
	if chainData(own) == chainData(lead.FinalizedChain()) || own[s-1].ID() != forged.ID() {
		t.Fatal("node 3 did not move to a chain of its own holding the forged block")
	}
	for i := range prefix {
		if own[i].ID() != prefix[i].ID() {
			t.Fatalf("node 3's own chain differs from the prefix it had finalized at slot %d", i+1)
		}
	}

	if err := cl.r.Run(400, nil); err != nil {
		t.Fatal(err)
	}
	for _, n := range cl.chains[:3] {
		chain := n.FinalizedChain()
		if chainData(chain) != chainData(lead.FinalizedChain()) || types.Slot(len(chain)) < s || chain[s-1].ID() == forged.ID() {
			t.Fatalf("node %d no longer shares the cluster's chain of the blocks it finalized", n.ID())
		}
	}
	if lag.FinalizedSlot() != s {
		t.Fatalf("node 3 finalized slot %d on top of the forged block", lag.FinalizedSlot())
	}
	_, err := cl.fold(p)
	if !errors.Is(err, ErrAgreement) || !strings.Contains(err.Error(), "node 3 decided") {
		t.Fatalf("fold = %v, want an ErrAgreement naming node 3", err)
	}
}
