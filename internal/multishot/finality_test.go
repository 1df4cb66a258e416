package multishot

import (
	"fmt"
	"testing"
	"unsafe"

	"tetrabft/internal/byz"
	"tetrabft/internal/sim"
	"tetrabft/internal/trace"
	"tetrabft/internal/types"
)

// scanChainStart is the finality search without its bound, the reference for
// highestChainStart: every started slot above the finalized head, from the
// highest down.
func scanChainStart(n *Node) (types.Slot, types.BlockID, bool) {
	for k := n.maxSlot; k > n.finalized; k-- {
		if head, ok := n.chainAt(k); ok {
			return k, head, true
		}
	}
	return 0, types.ZeroBlockID, false
}

// searchAudit runs the bounded search and the full scan side by side on a
// node and counts how often they ran and how often they found a chain. It
// is the nodes' tracer, so it also runs inside the handlers: at every
// notarization (where tryFinalize searches next) and every finalized slot
// (where it searches again).
type searchAudit struct {
	t             *testing.T
	nodes         map[types.NodeID]*Node
	checks, found int
}

func (a *searchAudit) compare(n *Node, at string) {
	k, head, ok := n.highestChainStart()
	wk, whead, wok := scanChainStart(n)
	if k != wk || head != whead || ok != wok {
		a.t.Errorf("node %d %s: bounded search picked k=%d (%v), the full scan k=%d (%v)", n.ID(), at, k, ok, wk, wok)
	}
	a.checks++
	if ok {
		a.found++
	}
}

func (a *searchAudit) Emit(e trace.Event) {
	if e.Type == "notarize" || e.Type == "finalize" {
		a.compare(a.nodes[e.Node], e.Type+" at slot "+fmt.Sprint(e.Slot))
	}
}

// scanAudited delivers to its node, then compares the two searches.
type scanAudited struct {
	*Node
	a *searchAudit
}

func (w scanAudited) Deliver(env types.Env, from types.NodeID, msg types.Message) {
	w.Node.Deliver(env, from, msg)
	w.a.compare(w.Node, "after a delivery")
}

// TestChainSearchMatchesScan: highestChainStart, which starts at the highest
// notarized slot − 3, picks the same slot and block as a scan from the
// highest started slot, at every point the node searches and after every
// delivery: on the n = 16 pipeline, with a crashed leader, and on lossy and
// partitioned seeds.
func TestChainSearchMatchesScan(t *testing.T) {
	partition := func(seed int64) sim.Config {
		return sim.Config{Seed: seed, Delay: sim.UniformDelay{Min: 1, Max: 10},
			Adversary: &sim.Partition{Groups: [][]types.NodeID{{0, 1}, {2, 3}}, From: 30, To: 400}}
	}
	lossy := func(seed int64) sim.Config {
		return sim.Config{Seed: seed, GST: 150, DropBeforeGST: 0.8, Delay: sim.UniformDelay{Min: 1, Max: 10}}
	}
	type run struct {
		name            string
		cfg             sim.Config
		nodes           int
		silent          types.NodeID // -1 = none
		maxSlot, target types.Slot
	}
	cases := []run{
		{"pipeline n=16", sim.Config{Seed: 1}, 16, -1, 103, 100},
		{"pipeline-crashed-leader", sim.Config{Seed: 1}, 4, 3, 9, 6},
	}
	for seed := int64(1); seed <= 3; seed++ {
		cases = append(cases,
			run{fmt.Sprintf("lossy seed=%d", seed), lossy(seed), 4, -1, 10, 7},
			run{fmt.Sprintf("partition seed=%d", seed), partition(seed), 4, -1, 30, 20})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := &searchAudit{t: t, nodes: make(map[types.NodeID]*Node)}
			r := sim.New(tc.cfg)
			var honest []*Node
			for i := 0; i < tc.nodes; i++ {
				id := types.NodeID(i)
				if id == tc.silent {
					r.Add(byz.Silent{NodeID: id})
					continue
				}
				n, err := NewNode(Config{ID: id, Nodes: tc.nodes, Delta: 10, MaxSlot: tc.maxSlot, Tracer: a})
				if err != nil {
					t.Fatal(err)
				}
				a.nodes[id] = n
				honest = append(honest, n)
				r.Add(scanAudited{Node: n, a: a})
			}
			if err := r.Run(20000, nil); err != nil {
				t.Fatal(err)
			}
			checkChains(t, honest)
			for _, n := range honest {
				if n.FinalizedSlot() < tc.target {
					t.Fatalf("node %d finalized %d slots, want at least %d", n.ID(), n.FinalizedSlot(), tc.target)
				}
			}
			if a.found == 0 {
				t.Fatalf("%d comparisons and none found a chain: the audit compared nothing", a.checks)
			}
			t.Logf("%d comparisons, %d found a chain", a.checks, a.found)
		})
	}
}

// reserveAudit records, after every delivery, whether the backing array of
// its node's finalized chain moved since the chain's first block.
type reserveAudit struct {
	*Node
	first *types.Block
	moves *int
}

func (w *reserveAudit) Deliver(env types.Env, from types.NodeID, msg types.Message) {
	w.Node.Deliver(env, from, msg)
	chain := w.FinalizedChain()
	if len(chain) == 0 {
		return
	}
	if p := unsafe.SliceData(chain); w.first == nil {
		w.first = p
	} else if p != w.first {
		w.first = p
		*w.moves++
	}
}

// TestChainReservedOnce: a capped node reserves its finalized chain when it
// is built, so on the n = 16, 2,100-slot pipeline the backing array of
// FinalizedChain never moves — no prefix is ever copied.
func TestChainReservedOnce(t *testing.T) {
	const nodes, maxSlot = 16, 2103
	r := sim.New(sim.Config{Seed: 1})
	all := make([]*Node, nodes)
	moves := 0
	for i := range all {
		n, err := NewNode(Config{ID: types.NodeID(i), Nodes: nodes, Delta: 10, MaxSlot: maxSlot})
		if err != nil {
			t.Fatal(err)
		}
		all[i] = n
		r.Add(&reserveAudit{Node: n, moves: &moves})
	}
	if err := r.Run(1_000_000, nil); err != nil {
		t.Fatal(err)
	}
	for _, n := range all {
		if n.FinalizedSlot() != maxSlot-3 {
			t.Fatalf("node %d finalized %d slots, want %d", n.ID(), n.FinalizedSlot(), maxSlot-3)
		}
	}
	if moves != 0 {
		t.Fatalf("finalized chains moved %d times over %d slots; a capped node reserves its chain once", moves, maxSlot-3)
	}
}
