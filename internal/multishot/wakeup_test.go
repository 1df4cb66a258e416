package multishot

import (
	"testing"

	"tetrabft/internal/sim"
	"tetrabft/internal/types"
)

// TestTickBeforeDeadlineIsIgnored: a timer fire before the node's pending
// wakeup — a restored node receiving its predecessor's queued timers, say —
// must not expire a slot early. Slot 1 starts at t = 0 with its 9Δ deadline
// at 90; a fire at t = 5 changes nothing and the one at t = 90 calls for
// view 1.
func TestTickBeforeDeadlineIsIgnored(t *testing.T) {
	node, err := NewNode(Config{ID: 0, Nodes: 4, Delta: 10})
	if err != nil {
		t.Fatal(err)
	}
	env := &recordEnv{}
	node.Start(env) // node 0 does not lead slot 1: nothing to send
	env.now = 5
	node.Tick(env, 1)
	if k := countViewChanges(env); k != 0 {
		t.Fatalf("a fire at t=5 broadcast %d view changes, 85 ticks before slot 1's deadline", k)
	}
	env.now = 90
	node.Tick(env, 1)
	if k := countViewChanges(env); k != 1 {
		t.Fatalf("the fire at the deadline broadcast %d view changes, want 1", k)
	}
	if got, want := env.broadcasts()[0], (types.MSViewChange{Slot: 1, View: 1}); got != want {
		t.Errorf("broadcast %v, want %v", got, want)
	}
}

// timerAudit hosts a node and counts the Env timers it arms and the fires it
// receives, so pending = arms − fires at every instant.
type timerAudit struct {
	*Node
	env      timerAuditEnv
	pending  int
	wakeups  int
	maxAlive int
}

type timerAuditEnv struct {
	types.Env
	a *timerAudit
}

func (e *timerAuditEnv) SetTimer(id types.TimerID, d types.Duration) {
	e.a.pending++
	e.a.maxAlive = max(e.a.maxAlive, e.a.pending)
	e.Env.SetTimer(id, d)
}

func (a *timerAudit) wrap(env types.Env) types.Env {
	a.env = timerAuditEnv{Env: env, a: a}
	return &a.env
}

func (a *timerAudit) Start(env types.Env) { a.Node.Start(a.wrap(env)) }
func (a *timerAudit) Deliver(env types.Env, from types.NodeID, msg types.Message) {
	a.Node.Deliver(a.wrap(env), from, msg)
}
func (a *timerAudit) Tick(env types.Env, id types.TimerID) {
	a.pending--
	a.wakeups++
	a.Node.Tick(a.wrap(env), id)
}

// TestOneTimerPerNode pins the wakeup design on the fault-free sim-pipeline
// shape (n = 16, unit delays, 2,100 slots): a multishot node never has more
// than one Env timer pending, and it wakes at most once per 9Δ of the run
// (plus the wakeup pending when the run ends). A timer per slot would hold
// one per slot started in the last 9Δ, and fire each one.
func TestOneTimerPerNode(t *testing.T) {
	const n, slots, delta = 16, 2100, 10
	r := sim.New(sim.Config{Seed: 1})
	audits := make([]*timerAudit, n)
	for i := range audits {
		node, err := NewNode(Config{ID: types.NodeID(i), Nodes: n, Delta: delta, MaxSlot: slots + 3})
		if err != nil {
			t.Fatal(err)
		}
		audits[i] = &timerAudit{Node: node}
		r.Add(audits[i])
	}
	err := r.Run(0, func() bool {
		for _, a := range audits {
			if a.FinalizedSlot() < slots {
				return false
			}
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	ticks := int(r.Now())
	limit := (ticks+9*delta-1)/(9*delta) + 1
	for _, a := range audits {
		if a.maxAlive > 1 {
			t.Errorf("node %d had %d timers pending at once, want at most 1", a.ID(), a.maxAlive)
		}
		if a.wakeups > limit {
			t.Errorf("node %d woke %d times in %d ticks, want at most ⌈ticks/9Δ⌉+1 = %d", a.ID(), a.wakeups, ticks, limit)
		}
	}
}
