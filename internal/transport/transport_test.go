package transport

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"tetrabft/internal/core"
	"tetrabft/internal/multishot"
	"tetrabft/internal/types"
)

// TestSingleShotOverTCP runs a 4-node TetraBFT cluster over real loopback
// TCP and waits for unanimous agreement.
func TestSingleShotOverTCP(t *testing.T) {
	const n = 4
	var (
		mu        sync.Mutex
		decisions = make(map[types.NodeID]types.Value)
		decidedCh = make(chan struct{}, n)
	)
	runtimes := make([]*Runtime, n)
	for i := 0; i < n; i++ {
		id := types.NodeID(i)
		node, err := core.NewNode(core.Config{
			ID:           id,
			Nodes:        n,
			InitialValue: types.Value(fmt.Sprintf("val-%d", i)),
			Delta:        20, // 20 ticks × 1ms = generous for loopback
		})
		if err != nil {
			t.Fatal(err)
		}
		rt, err := New(node, Config{
			ListenAddr: "127.0.0.1:0",
			OnDecide: func(_ types.Slot, val types.Value) {
				mu.Lock()
				decisions[id] = val
				mu.Unlock()
				decidedCh <- struct{}{}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		runtimes[i] = rt
	}
	defer func() {
		for _, rt := range runtimes {
			rt.Close()
		}
	}()

	addrs := make(map[types.NodeID]string, n)
	for i, rt := range runtimes {
		addrs[types.NodeID(i)] = rt.Addr()
	}
	for _, rt := range runtimes {
		rt.SetPeers(addrs)
	}
	for _, rt := range runtimes {
		rt.Run()
	}

	deadline := time.After(10 * time.Second)
	for count := 0; count < n; {
		select {
		case <-decidedCh:
			count++
		case <-deadline:
			t.Fatalf("only %d of %d nodes decided within the deadline", count, n)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(decisions) != n {
		t.Fatalf("decisions from %d nodes, want %d", len(decisions), n)
	}
	for id, val := range decisions {
		if val != "val-0" {
			t.Errorf("node %d decided %q, want the leader's value val-0", id, val)
		}
	}
}

// TestMultiShotOverTCP finalizes a short chain across real sockets.
func TestMultiShotOverTCP(t *testing.T) {
	const n = 4
	const maxSlot = 7
	const target = maxSlot - 3
	var (
		mu    sync.Mutex
		final = make(map[types.NodeID]map[types.Slot]types.Value)
		done  = make(chan struct{}, n*target)
	)
	runtimes := make([]*Runtime, n)
	for i := 0; i < n; i++ {
		id := types.NodeID(i)
		node, err := multishot.NewNode(multishot.Config{
			ID:      id,
			Nodes:   n,
			Delta:   20,
			MaxSlot: maxSlot,
		})
		if err != nil {
			t.Fatal(err)
		}
		rt, err := New(node, Config{
			ListenAddr: "127.0.0.1:0",
			OnDecide: func(slot types.Slot, val types.Value) {
				mu.Lock()
				if final[id] == nil {
					final[id] = make(map[types.Slot]types.Value)
				}
				final[id][slot] = val
				mu.Unlock()
				done <- struct{}{}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		runtimes[i] = rt
	}
	defer func() {
		for _, rt := range runtimes {
			rt.Close()
		}
	}()

	addrs := make(map[types.NodeID]string, n)
	for i, rt := range runtimes {
		addrs[types.NodeID(i)] = rt.Addr()
	}
	for _, rt := range runtimes {
		rt.SetPeers(addrs)
		rt.Run()
	}

	deadline := time.After(15 * time.Second)
	for count := 0; count < n*target; {
		select {
		case <-done:
			count++
		case <-deadline:
			t.Fatalf("only %d of %d finalizations within the deadline", count, n*target)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for slot := types.Slot(1); slot <= target; slot++ {
		var want types.Value
		for id := types.NodeID(0); id < n; id++ {
			got, ok := final[id][slot]
			if !ok {
				t.Fatalf("node %d missing slot %d", id, slot)
			}
			if want == "" {
				want = got
				continue
			}
			if got != want {
				t.Fatalf("slot %d: node %d decided differently", slot, id)
			}
		}
	}
}

// TestCloseIsIdempotentAndJoins: Close twice must not panic and must return
// promptly even with live connections.
func TestCloseIsIdempotentAndJoins(t *testing.T) {
	node, err := core.NewNode(core.Config{ID: 0, Nodes: 4, InitialValue: "x", Delta: 1000})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(node, Config{ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	rt.SetPeers(map[types.NodeID]string{1: "127.0.0.1:1"}) // unreachable peer
	rt.Run()
	time.Sleep(20 * time.Millisecond)
	finished := make(chan struct{})
	go func() {
		rt.Close()
		rt.Close()
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return")
	}
}

// TestDoReportsWhetherFnRan races Do against Close, against Kill and, on a
// runtime that never ran, against Close alone: over a few hundred rounds,
// the functions that ran must be exactly the ones whose Do returned true.
// A Do that returned false while its function ran, or before it ran, fails
// the count (and, under -race, the function's write races the reader's).
func TestDoReportsWhetherFnRan(t *testing.T) {
	const rounds, callers = 300, 4
	for round := 0; round < rounds; round++ {
		rt, err := New(&idleMachine{id: 0}, Config{ListenAddr: "127.0.0.1:0"})
		if err != nil {
			t.Fatal(err)
		}
		if round%3 != 2 {
			rt.Run()
		}
		var ran, reported [callers]int
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 3; i++ {
					if rt.Do(func() { ran[c]++ }) {
						reported[c]++
					}
				}
			}()
		}
		if round%3 == 1 {
			rt.Kill()
		} else {
			rt.Close()
		}
		wg.Wait()
		if ran != reported {
			t.Fatalf("round %d: functions ran %v times, Do reported %v", round, ran, reported)
		}
	}
}
