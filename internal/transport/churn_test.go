package transport

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tetrabft/internal/multishot"
	"tetrabft/internal/types"
)

// idleMachine is a Machine that does nothing; it lets tests drive the
// runtime's env directly.
type idleMachine struct{ id types.NodeID }

func (m *idleMachine) ID() types.NodeID                               { return m.id }
func (m *idleMachine) Start(types.Env)                                {}
func (m *idleMachine) Deliver(types.Env, types.NodeID, types.Message) {}
func (m *idleMachine) Tick(types.Env, types.TimerID)                  {}

// TestTimersPrunedAfterFire is the regression test for the timer leak:
// fired timers must leave the pending set, so long runs stay bounded.
func TestTimersPrunedAfterFire(t *testing.T) {
	rt, err := New(&idleMachine{id: 0}, Config{ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	e := &env{r: rt}
	const n = 500
	for i := 0; i < n; i++ {
		e.SetTimer(types.TimerID(i), 1) // 1 tick = 1ms
	}
	if got := rt.ActiveTimers(); got == 0 {
		t.Fatal("timers did not register as active")
	}
	deadline := time.Now().Add(5 * time.Second)
	for rt.ActiveTimers() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d timers still tracked long after firing; fired timers must be pruned", rt.ActiveTimers())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestHeldFrameSurvivesReconnect: a frame sent while the peer is down must
// ride across the failed dials and arrive once the peer comes up — the
// regression test for writeLoop's silent frame loss. The peer's listener is
// held for the whole test (a freed port can be taken by a concurrent dial);
// the dialer refuses until the frame has ridden two failed dials.
func TestHeldFrameSurvivesReconnect(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	rt, err := New(&idleMachine{id: 0}, Config{ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	var up atomic.Bool
	var failed atomic.Int32
	rt.dial = func(network, addr string) (net.Conn, error) {
		if !up.Load() {
			failed.Add(1)
			return nil, errors.New("peer down")
		}
		return net.Dial(network, addr)
	}
	rt.SetPeers(map[types.NodeID]string{1: ln.Addr().String()})
	rt.Run()

	want := types.MSViewChange{Slot: 3, View: 7}
	(&env{r: rt}).Send(1, want)
	held := failed.Load() + 2
	for deadline := time.Now().Add(5 * time.Second); failed.Load() < held; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("only %d dials failed; the writer stopped retrying", failed.Load())
		}
	}
	up.Store(true)

	ln.(*net.TCPListener).SetDeadline(time.Now().Add(5 * time.Second))
	conn, err := ln.Accept()
	if err != nil {
		t.Fatalf("the writer never reconnected: %v", err)
	}
	defer conn.Close()
	var hello [8]byte
	if _, err := io.ReadFull(conn, hello[:]); err != nil {
		t.Fatal(err)
	}
	if got := types.NodeID(binary.BigEndian.Uint64(hello[:])); got != 0 {
		t.Fatalf("hello from node %d, want 0", got)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	payload, err := readFrame(conn, nil)
	if err != nil {
		t.Fatalf("the held frame never arrived: %v", err)
	}
	msg, err := types.Decode(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := msg.(types.MSViewChange); !ok || got != want {
		t.Fatalf("got %v, want %v", msg, want)
	}
}

// TestHeldFrameTTLCountsDrop: when the peer never comes back, the held
// frame is abandoned after HeldFrameTTL and counted, not retried forever.
func TestHeldFrameTTLCountsDrop(t *testing.T) {
	rt, err := New(&idleMachine{id: 0}, Config{
		ListenAddr:   "127.0.0.1:0",
		HeldFrameTTL: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rt.SetPeers(map[types.NodeID]string{1: "127.0.0.1:1"}) // nothing listens there
	rt.Run()
	(&env{r: rt}).Send(1, types.MSViewChange{Slot: 1, View: 1})

	deadline := time.Now().Add(5 * time.Second)
	for rt.Stats()[1].DroppedFrames == 0 {
		if time.Now().After(deadline) {
			t.Fatal("held frame was never dropped nor counted after its TTL")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestConnectionChurn kills a replica's runtime mid-run (hard RST, not a
// clean close), relaunches a fresh one on the same address, and requires
// the cluster to still finalize the target prefix in agreement. Run under
// -race in CI: it exercises reconnect, held-frame retry and the conn
// registry concurrently.
func TestConnectionChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock heavy TCP churn test")
	}
	const n = 4
	const maxSlot = 8
	const target = maxSlot - 3
	type decision struct {
		node types.NodeID
		slot types.Slot
		val  types.Value
	}
	decisions := make(chan decision, 1024)

	newRuntime := func(id types.NodeID, listen string) *Runtime {
		node, err := multishot.NewNode(multishot.Config{ID: id, Nodes: n, Delta: 20, MaxSlot: maxSlot})
		if err != nil {
			t.Fatal(err)
		}
		rt, err := New(node, Config{
			ListenAddr: listen,
			OnDecide: func(slot types.Slot, val types.Value) {
				decisions <- decision{node: id, slot: slot, val: val}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return rt
	}

	var mu sync.Mutex
	runtimes := make([]*Runtime, n)
	for i := 0; i < n; i++ {
		runtimes[i] = newRuntime(types.NodeID(i), "127.0.0.1:0")
	}
	defer func() {
		mu.Lock()
		rts := append([]*Runtime{}, runtimes...)
		mu.Unlock()
		for _, rt := range rts {
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

	// Kill node 3 after the pipeline has demonstrably started, then bring
	// up a fresh replica on the same address; it catches up via the
	// finality-claim protocol while the other three keep finalizing.
	const victim = 3
	killed := false
	relaunched := time.Time{}
	watermark := make(map[types.NodeID]types.Slot)
	values := make(map[types.Slot]types.Value)
	deadline := time.After(30 * time.Second)
	for {
		allDone := len(watermark) == n
		for _, w := range watermark {
			if w < target {
				allDone = false
			}
		}
		if allDone {
			break
		}
		select {
		case d := <-decisions:
			if prev, ok := values[d.slot]; ok {
				if prev != d.val {
					t.Fatalf("slot %d: node %d finalized %q, others %q", d.slot, d.node, d.val, prev)
				}
			} else {
				values[d.slot] = d.val
			}
			if d.slot > watermark[d.node] {
				watermark[d.node] = d.slot
			}
			if !killed && d.slot >= 1 {
				killed = true
				go func() {
					mu.Lock()
					rt := runtimes[victim]
					mu.Unlock()
					rt.Kill()
					replacement := newRuntime(victim, addrs[victim])
					replacement.SetPeers(addrs)
					replacement.Run()
					mu.Lock()
					runtimes[victim] = replacement
					relaunched = time.Now()
					mu.Unlock()
				}()
			}
		case <-deadline:
			t.Fatalf("cluster did not recover from churn: watermarks %v (relaunched at %v)", watermark, relaunched)
		}
	}
	if len(values) < target {
		t.Fatalf("only %d slots finalized, want at least %d", len(values), target)
	}
}
