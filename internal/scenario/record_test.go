package scenario

import (
	"errors"
	"strings"
	"testing"

	"tetrabft/internal/multishot"
	"tetrabft/internal/replica"
	"tetrabft/internal/sim"
	"tetrabft/internal/types"
)

// planned is one decision of a scriptedDecider: val for slot, after a delay.
type planned struct {
	after types.Duration
	slot  types.Slot
	val   types.Value
}

// scriptedDecider is a machine that makes its planned decisions, each at
// its own timer, and nothing else.
type scriptedDecider struct {
	id   types.NodeID
	plan []planned
}

func (d *scriptedDecider) ID() types.NodeID { return d.id }
func (d *scriptedDecider) Start(env types.Env) {
	for i, p := range d.plan {
		env.SetTimer(types.TimerID(i), p.after)
	}
}
func (d *scriptedDecider) Deliver(types.Env, types.NodeID, types.Message) {}
func (d *scriptedDecider) Tick(env types.Env, id types.TimerID) {
	env.Decide(d.plan[id].slot, d.plan[id].val)
}

// forger is a multishot replica that reports every decision with a value of
// its own: the same protocol run, but its decisions disagree.
type forger struct{ *multishot.Node }

type forgedEnv struct{ types.Env }

func (e forgedEnv) Decide(slot types.Slot, _ types.Value) { e.Env.Decide(slot, "forged") }

func (f forger) Start(env types.Env) { f.Node.Start(forgedEnv{env}) }
func (f forger) Deliver(env types.Env, from types.NodeID, m types.Message) {
	f.Node.Deliver(forgedEnv{env}, from, m)
}
func (f forger) Tick(env types.Env, id types.TimerID) { f.Node.Tick(forgedEnv{env}, id) }

// TestDisagreementFailsTheRun: a decision that differs from its slot's
// first fails the run with ErrAgreement, naming the slot and both nodes —
// fed through the simulator's OnDecide into a cluster's commit record, and
// through replica.Host's OnDecide on TCP.
func TestDisagreementFailsTheRun(t *testing.T) {
	t.Run("sim", func(t *testing.T) {
		p, err := Scenario{Name: "forged", Protocol: TetraBFTMulti, Nodes: 4, Workload: WorkloadSpec{Slots: 4},
			Stop: StopSpec{Horizon: 400}}.compile()
		if err != nil {
			t.Fatal(err)
		}
		cl, err := newSimCluster(p, p.clusters[0], nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		cl.r.Add(&scriptedDecider{id: 99, plan: []planned{{slot: 1, val: "forged"}}})
		if err := cl.r.Run(400, nil); err != nil {
			t.Fatal(err)
		}
		_, err = cl.fold(p)
		if !errors.Is(err, ErrAgreement) || !strings.HasPrefix(err.Error(), `scenario "forged": agreement violated in slot 1: node 99 decided "forged", node `) {
			t.Fatalf("fold = %v, want slot 1's ErrAgreement naming node 99 first", err)
		}
	})
	t.Run("tcp", func(t *testing.T) {
		if testing.Short() {
			t.Skip("real TCP run")
		}
		noLeaks(t)
		orig := launchHost
		t.Cleanup(func() { launchHost = orig })
		launchHost = func(cfg replica.Config) (*replica.Host, error) {
			if cfg.Node.ID == 3 {
				cfg.Wrap = func(*multishot.Config) func(*multishot.Node) types.Machine {
					return func(n *multishot.Node) types.Machine { return forger{n} }
				}
			}
			return orig(cfg)
		}
		_, err := Run(Scenario{Name: "forged", Engine: EngineTCP, Protocol: TetraBFTMulti, Nodes: 4,
			Workload: WorkloadSpec{Slots: 3}, Stop: StopSpec{WallClockMS: 30000}})
		if !errors.Is(err, ErrAgreement) || !strings.Contains(err.Error(), `agreement violated in slot `) || !strings.Contains(err.Error(), `node 3 decided "forged"`) {
			t.Fatalf("Run = %v, want an ErrAgreement naming node 3's forged value", err)
		}
	})
}

// TestRepeatGuardAtAnyID: the record ignores a repeat of a node whose ID it
// cannot index directly — negative, or at or past maxNodes, as a
// quorum-slice spec may name — as it does node 0's, and keeps such nodes
// apart.
func TestRepeatGuardAtAnyID(t *testing.T) {
	for _, id := range []types.NodeID{0, -7, maxNodes, 1 << 30} {
		var rec commitRecord
		rec.decide(id, 1, "v", 2)
		rec.decide(id, 2, "w", 5)
		rec.decide(id, 1, "v", 9) // a relaunched node decides its prefix again
		rec.decide(id+1, 1, "v", 7)
		rec.decide(id, 2, "w", 11)
		if rec.err != nil || rec.at(1) != 2 || rec.at(2) != 5 || rec.last != 7 {
			t.Fatalf("node %d: commits %d and %d, latest %d, error %v: want slot 1 at 2, slot 2 at 5, latest 7, no error", id, rec.at(1), rec.at(2), rec.last, rec.err)
		}
	}
}

// TestRepeatedDecideMovesNothing: a node that decides a slot again moves
// neither the slot's commit time nor the latest decision, on a record fed
// through the simulator's OnDecide — as the runner's own record ignores a
// repeat. Another node's later decision of the slot is the latest one.
func TestRepeatedDecideMovesNothing(t *testing.T) {
	var rec commitRecord
	r := sim.New(sim.Config{Seed: 1, OnDecide: rec.decide})
	r.Add(&scriptedDecider{id: 0, plan: []planned{{after: 2, slot: 1, val: "v"}, {after: 9, slot: 1, val: "v"}, {after: 9, slot: 2, val: "w"}}})
	r.Add(&scriptedDecider{id: 1, plan: []planned{{after: 4, slot: 1, val: "v"}, {after: 12, slot: 1, val: "v"}}})
	if err := r.Run(0, nil); err != nil {
		t.Fatal(err)
	}
	if rec.err != nil || rec.at(1) != 2 || rec.at(2) != 9 || rec.last != 9 {
		t.Fatalf("commits %d and %d, latest %d, error %v: want slot 1 at 2, slot 2 at 9, latest 9, no error", rec.at(1), rec.at(2), rec.last, rec.err)
	}
}
