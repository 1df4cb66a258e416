package scenario_test

import (
	"testing"

	"tetrabft/internal/scenario"
	"tetrabft/internal/sweep"
	"tetrabft/internal/types"
)

// oneRound is the smallest protocol the table can hold. In view v node
// v mod n broadcasts its value, every node decides the first value its
// current view's leader sends it, and a node still undecided at the view
// timeout moves to the next view. Nodes that decide in different views can
// decide different values, so a fuzz campaign against it is expected to
// find agreement violations.
type oneRound struct {
	cfg     scenario.NodeConfig
	view    types.View
	decided bool
}

func newOneRound(cfg scenario.NodeConfig) (scenario.SingleNode, error) {
	if cfg.TimeoutFactor == 0 {
		cfg.TimeoutFactor = 9
	}
	return &oneRound{cfg: cfg}, nil
}

func (n *oneRound) ID() types.NodeID     { return n.cfg.ID }
func (n *oneRound) StorageBytes() int64  { return 0 }
func (n *oneRound) View() types.View     { return n.view }
func (n *oneRound) Start(env types.Env)  { n.enter(env, 0) }
func (n *oneRound) leader() types.NodeID { return types.NodeID(int(n.view) % n.cfg.Nodes) }
func (n *oneRound) Tick(env types.Env, id types.TimerID) {
	if !n.decided && types.View(id) == n.view {
		n.enter(env, n.view+1)
	}
}

func (n *oneRound) enter(env types.Env, v types.View) {
	n.view = v
	env.SetTimer(types.TimerID(v), types.Duration(n.cfg.TimeoutFactor)*n.cfg.Delta)
	if n.leader() == n.cfg.ID {
		env.Broadcast(types.Proposal{View: v, Val: n.cfg.InitialValue})
	}
}

func (n *oneRound) Deliver(env types.Env, from types.NodeID, msg types.Message) {
	p, ok := msg.(types.Proposal)
	if !ok || n.decided || p.View != n.view || from != n.leader() {
		return
	}
	n.decided = true
	env.Decide(0, p.Val)
}

// TestRegisteredProtocolRunsEverywhere registers a protocol from outside the
// package, through the table alone, and drives it through a scenario run, a
// sweep protocol axis and a fuzz campaign.
func TestRegisteredProtocolRunsEverywhere(t *testing.T) {
	const name = scenario.Protocol("one-round")
	t.Cleanup(scenario.Register(scenario.Descriptor{Name: name, Views: true}, newOneRound))
	if d, ok := scenario.Lookup(name); !ok || d.Name != name {
		t.Fatalf("Lookup(%q) = %+v, %v", name, d, ok)
	}

	res, err := scenario.Run(scenario.Scenario{
		Protocol: name, Nodes: 4,
		Faults: []scenario.FaultSpec{{Type: scenario.FaultSilent, Node: 0}},
		Stop:   scenario.StopSpec{Horizon: 1000, AllDecided: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	// View 0's leader is silent: at the 9Δ = 90 timeout view 1's leader
	// proposes and, delivering to itself at once, decides first.
	if res.DecidedCount != 3 || res.FirstDecisionAt != 90 || res.MaxView != 1 {
		t.Errorf("decided %d by t=%d in view %d, want 3 by t=90 in view 1", res.DecidedCount, res.FirstDecisionAt, res.MaxView)
	}

	sw, err := sweep.Run(sweep.Sweep{
		Base: scenario.Scenario{Nodes: 4, Stop: scenario.StopSpec{Horizon: 1000}},
		Axes: []sweep.Axis{{Field: "protocol", Strings: []string{string(scenario.TetraBFT), string(name)}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, cell := range sw.Cells {
		if d := cell.Stats["decided"]; !cell.Pass || d.Min != 4 {
			t.Errorf("sweep cell %s: pass %v, decided %v, want every node", cell.LabelString(), cell.Pass, d.Min)
		}
	}

	rep, err := sweep.Fuzz(sweep.FuzzConfig{Seed: 1, Runs: 10, Protocols: []scenario.Protocol{name}})
	if err != nil {
		t.Fatalf("fuzz campaign: %v", err)
	}
	for _, f := range rep.Failures {
		if f.Kind == sweep.FailError {
			t.Errorf("fuzz run failed outright: %s", f.Detail)
		}
	}
}
