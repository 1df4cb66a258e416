package transport

import (
	"testing"
	"time"

	"tetrabft/internal/types"
)

// TestChaosPolicyDeterministic: the per-frame verdict is a pure function
// of (seed, from, to, ordinal) — two walks of the same frame sequence see
// the identical fault pattern, which is what makes chaos runs repeatable.
func TestChaosPolicyDeterministic(t *testing.T) {
	mk := func(seed uint64) *Chaos {
		return &Chaos{
			Seed:     seed,
			DropRate: 0.2,
			DupRate:  0.1,
			DelayMin: time.Millisecond,
			DelayMax: 5 * time.Millisecond,
		}
	}
	type key struct {
		from, to types.NodeID
		ord      uint64
	}
	var seq []key
	for from := types.NodeID(0); from < 4; from++ {
		for to := types.NodeID(0); to < 4; to++ {
			if from == to {
				continue
			}
			for ord := uint64(0); ord < 50; ord++ {
				seq = append(seq, key{from, to, ord})
			}
		}
	}
	a, b := mk(42), mk(42)
	drops, dups, delayed := 0, 0, 0
	for _, k := range seq {
		va := a.Decide(k.from, k.to, k.ord, time.Second)
		vb := b.Decide(k.from, k.to, k.ord, time.Second)
		if va != vb {
			t.Fatalf("same seed diverged at %+v: %+v vs %+v", k, va, vb)
		}
		if va.Drop {
			drops++
		}
		if va.Duplicate {
			dups++
		}
		if va.Delay > 0 {
			delayed++
		}
	}
	if drops == 0 || dups == 0 || delayed == 0 {
		t.Fatalf("fault mix degenerate: drops=%d dups=%d delayed=%d over %d frames", drops, dups, delayed, len(seq))
	}
	if drops == len(seq) {
		t.Fatal("every frame dropped at DropRate 0.2")
	}

	// A different seed must yield a different pattern.
	c := mk(43)
	same := true
	for _, k := range seq {
		if a.Decide(k.from, k.to, k.ord, time.Second) != c.Decide(k.from, k.to, k.ord, time.Second) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 42 and 43 produced identical fault patterns")
	}
}

// TestChaosTimeClauses: DropUntil models pre-GST total loss; Partitioned
// severs scheduled links.
func TestChaosTimeClauses(t *testing.T) {
	ch := &Chaos{
		Seed:      1,
		DropUntil: 100 * time.Millisecond,
		Partitioned: func(from, to types.NodeID, elapsed time.Duration) bool {
			return from == 0 && to == 1 && elapsed < 500*time.Millisecond
		},
	}
	if !ch.Decide(2, 3, 0, 50*time.Millisecond).Drop {
		t.Error("frame before DropUntil not dropped")
	}
	if ch.Decide(2, 3, 0, 200*time.Millisecond).Drop {
		t.Error("clean frame after DropUntil dropped")
	}
	if !ch.Decide(0, 1, 0, 200*time.Millisecond).Drop {
		t.Error("partitioned link delivered")
	}
	if ch.Decide(1, 0, 0, 200*time.Millisecond).Drop {
		t.Error("reverse direction of a one-way partition dropped")
	}
	if ch.Decide(0, 1, 0, 600*time.Millisecond).Drop {
		t.Error("healed partition still dropping")
	}
}

// TestChaosDuplicateDelivers: duplicated frames reach the peer twice and
// the duplicate is counted; consensus messages are idempotent so the
// protocols absorb them.
func TestChaosDuplicateDelivers(t *testing.T) {
	rt, err := New(&idleMachine{id: 0}, Config{
		ListenAddr: "127.0.0.1:0",
		Chaos:      &Chaos{Seed: 7, DupRate: 1.0},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	sink, err := New(&idleMachine{id: 1}, Config{ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	rt.SetPeers(map[types.NodeID]string{1: sink.Addr()})
	rt.Run()
	sink.Run()

	(&env{r: rt}).Send(1, types.MSViewChange{Slot: 1, View: 1})
	deadline := time.Now().Add(5 * time.Second)
	for rt.Stats()[1].ChaosDuplicated == 0 {
		if time.Now().After(deadline) {
			t.Fatal("duplicate was never counted")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestChaosDelayedFramesStopAtClose: a frame the chaos policy holds back is
// a pending timer of the runtime. ActiveTimers counts it, Close stops it,
// and once Close has returned no held frame lands in a link queue, however
// long past its delay. The runtime is never Run, so no writer drains the
// queues and any late frame would stay in one.
func TestChaosDelayedFramesStopAtClose(t *testing.T) {
	const delay, frames = 20 * time.Millisecond, 5
	rt, err := New(&idleMachine{id: 0}, Config{
		ListenAddr: "127.0.0.1:0",
		Chaos:      &Chaos{Seed: 3, DelayMin: delay, DelayMax: delay},
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.SetPeers(map[types.NodeID]string{0: rt.Addr(), 1: "127.0.0.1:1", 2: "127.0.0.1:2"})
	e := &env{r: rt}
	for i := 0; i < frames; i++ {
		e.Broadcast(types.MSViewChange{Slot: types.Slot(i), View: 1})
	}
	if got, want := rt.ActiveTimers(), frames*len(rt.links); got != want {
		t.Errorf("%d pending timers with %d frames held on each of %d links, want %d", got, frames, len(rt.links), want)
	}
	rt.Close()
	time.Sleep(5 * delay)
	for _, p := range rt.links {
		if n := len(p.queue); n != 0 {
			t.Errorf("link to %d holds %d frames that were delayed past Close", p.id, n)
		}
	}
	if got := rt.ActiveTimers(); got != 0 {
		t.Errorf("%d timers still pending after Close", got)
	}
}
