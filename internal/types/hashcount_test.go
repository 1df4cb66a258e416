package types_test

import (
	"testing"
	"unsafe"

	"tetrabft/internal/multishot"
	"tetrabft/internal/sim"
	"tetrabft/internal/types"
)

// proposalCounter wraps a machine and counts the proposals it broadcasts.
type proposalCounter struct {
	types.Machine
	sent *int
}

func (p proposalCounter) Start(env types.Env) { p.Machine.Start(countingEnv{env, p.sent}) }

func (p proposalCounter) Deliver(env types.Env, from types.NodeID, msg types.Message) {
	p.Machine.Deliver(countingEnv{env, p.sent}, from, msg)
}

func (p proposalCounter) Tick(env types.Env, id types.TimerID) {
	p.Machine.Tick(countingEnv{env, p.sent}, id)
}

type countingEnv struct {
	types.Env
	sent *int
}

func (e countingEnv) Broadcast(msg types.Message) {
	if _, ok := msg.(types.MSPropose); ok {
		*e.sent++
	}
	e.Env.Broadcast(msg)
}

// TestOneHashPerProposedBlock: on the simulator a proposed block is hashed
// once per run, by its leader, however many replicas receive it. Every
// receiver shares the leader's sealed message, so the 15 peers and the
// leader's self-delivery read the sealed ID instead of hashing 16 more times.
func TestOneHashPerProposedBlock(t *testing.T) {
	const n, slots = 16, 240
	r := sim.New(sim.Config{Seed: 1})
	nodes := make([]*multishot.Node, n)
	proposals := 0
	for i := range nodes {
		node, err := multishot.NewNode(multishot.Config{ID: types.NodeID(i), Nodes: n, Delta: 10, MaxSlot: slots + 3,
			Batch: func(s types.Slot, _ types.Time) [][]byte { return [][]byte{[]byte("tx"), {byte(s)}} }})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
		r.Add(proposalCounter{node, &proposals})
	}
	stop := types.CountHashes()
	err := r.Run(0, func() bool {
		for _, node := range nodes {
			if node.FinalizedSlot() < slots {
				return false
			}
		}
		return true
	})
	hashes := stop()
	if err != nil {
		t.Fatal(err)
	}
	if proposals < slots {
		t.Fatalf("%d proposals for %d finalized slots", proposals, slots)
	}
	t.Logf("%d proposals, %d block hashes, %d ticks", proposals, hashes, r.Now())
	if hashes != proposals {
		t.Errorf("%d block hashes for %d proposed blocks at n = %d, want exactly one per block", hashes, proposals, n)
	}
}

// TestOneValueStringPerProposedBlock: on the simulator a proposed block's
// value string is made once per run, by its leader's NewMSPropose. Every
// receiver shares the leader's sealed message and takes its string, so all
// 16 replicas decide each slot with the same string, not 16 copies of it.
func TestOneValueStringPerProposedBlock(t *testing.T) {
	const n, slots = 16, 240
	strs := make(map[types.Slot]map[*byte]bool)
	last := 0 // replicas that decided the last slot
	r := sim.New(sim.Config{Seed: 1, OnDecide: func(_ types.NodeID, s types.Slot, val types.Value, _ types.Time) {
		if strs[s] == nil {
			strs[s] = make(map[*byte]bool)
		}
		strs[s][unsafe.StringData(string(val))] = true
		if s == slots {
			last++
		}
	}})
	for i := 0; i < n; i++ {
		node, err := multishot.NewNode(multishot.Config{ID: types.NodeID(i), Nodes: n, Delta: 10, MaxSlot: slots + 3,
			Batch: func(s types.Slot, _ types.Time) [][]byte { return [][]byte{[]byte("tx"), {byte(s)}} }})
		if err != nil {
			t.Fatal(err)
		}
		r.Add(node)
	}
	if err := r.Run(0, func() bool { return last == n }); err != nil {
		t.Fatal(err)
	}
	for s := types.Slot(1); s <= slots; s++ {
		if got := len(strs[s]); got != 1 {
			t.Fatalf("slot %d: the %d replicas decided it with %d distinct value strings, want 1", s, n, got)
		}
	}
}
