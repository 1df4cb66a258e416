package transport

import (
	"sync/atomic"
	"testing"
	"time"

	"tetrabft/internal/multishot"
	"tetrabft/internal/types"
)

// TestMultiShotHoldsOneTimer samples every replica's pending timers while a
// multishot cluster grows an unbounded chain over loopback TCP for several
// view timeouts (9Δ = 45 ms here). A replica holds at most one, its next
// wakeup, however many slots it starts per 9Δ. A timer per slot would hold
// one per slot started in the last 9Δ, each an AfterFunc, a map entry and,
// on firing, a goroutine.
func TestMultiShotHoldsOneTimer(t *testing.T) {
	const n, delta, target = 4, 5, 40
	var finalized [n]atomic.Int64
	runtimes := make([]*Runtime, n)
	for i := range runtimes {
		node, err := multishot.NewNode(multishot.Config{ID: types.NodeID(i), Nodes: n, Delta: delta})
		if err != nil {
			t.Fatal(err)
		}
		rt, err := New(node, Config{
			ListenAddr: "127.0.0.1:0",
			OnDecide:   func(slot types.Slot, _ types.Value) { finalized[i].Store(int64(slot)) },
		})
		if err != nil {
			t.Fatal(err)
		}
		runtimes[i] = rt
		defer rt.Close()
	}
	addrs := make(map[types.NodeID]string, n)
	for i, rt := range runtimes {
		addrs[types.NodeID(i)] = rt.Addr()
	}
	for _, rt := range runtimes {
		rt.SetPeers(addrs)
		rt.Run()
	}

	start := time.Now()
	most := 0
	for done := false; !done; time.Sleep(time.Millisecond) {
		done = time.Since(start) > 4*9*delta*time.Millisecond
		for i, rt := range runtimes {
			most = max(most, rt.ActiveTimers())
			done = done && finalized[i].Load() >= target
		}
		if time.Since(start) > 15*time.Second {
			t.Fatalf("the cluster did not finalize slot %d within the deadline", target)
		}
	}
	if most > 1 {
		t.Errorf("a replica held %d pending timers at once, want at most 1", most)
	}
}
