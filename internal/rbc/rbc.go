// Package rbc implements Bracha's unauthenticated Byzantine reliable
// broadcast: the classic 3-phase (init, echo, ready) primitive with
// good-case latency 3 message delays. It is both a standalone substrate
// (with its own Machine wrapper for tests) and the building block of the
// Li et al. baseline in internal/liconsensus.
package rbc

import (
	"fmt"

	"tetrabft/internal/quorum"
	"tetrabft/internal/types"
)

// Phase numbers carried in types.GenericVote for RBC.
const (
	PhaseInit uint8 = iota + 1
	PhaseEcho
	PhaseReady
)

// Delivery is one reliable-broadcast output.
type Delivery struct {
	Instance types.Slot
	Sender   types.NodeID
	Val      types.Value
}

// Engine multiplexes any number of reliable-broadcast instances, keyed by
// (instance, sender). It is a library, not a Machine: embed it in a
// protocol and forward matching GenericVote messages to Handle.
type Engine struct {
	self    types.NodeID
	qs      quorum.Threshold
	proto   types.Proto
	deliver func(env types.Env, d Delivery)

	instances map[instanceKey]*instance
	tallies   quorum.Tally[bucket]
}

type instanceKey struct {
	inst   types.Slot
	sender types.NodeID
}

type instance struct {
	echoed    bool
	readied   bool
	delivered bool
}

// bucket names the echoes or readies tallied together: one phase of one
// instance, for one value.
type bucket struct {
	instanceKey
	phase uint8
	val   types.Value
}

// NewEngine builds an engine for n nodes. deliver is invoked exactly once
// per (instance, sender) upon reliable delivery.
func NewEngine(self types.NodeID, n int, proto types.Proto, deliver func(env types.Env, d Delivery)) (*Engine, error) {
	qs, err := quorum.NewThreshold(n)
	if err != nil {
		return nil, fmt.Errorf("rbc: %w", err)
	}
	return &Engine{
		self:      self,
		qs:        qs,
		proto:     proto,
		deliver:   deliver,
		instances: make(map[instanceKey]*instance),
		tallies:   make(quorum.Tally[bucket]),
	}, nil
}

// Broadcast initiates instance inst as its sender.
func (e *Engine) Broadcast(env types.Env, inst types.Slot, val types.Value) {
	env.Broadcast(e.msg(PhaseInit, inst, e.self, val))
}

// Handle processes one RBC wire message. The sender of the broadcast is
// carried in the View field (re-purposed as a node ID); from is the network
// peer that transmitted this particular message.
func (e *Engine) Handle(env types.Env, from types.NodeID, m types.GenericVote) {
	if m.Proto != e.proto {
		return
	}
	origin, ok := originOf(m.View)
	if !ok {
		return
	}
	key := instanceKey{inst: m.Slot, sender: origin}
	st := e.instances[key]
	if st == nil {
		st = &instance{}
		e.instances[key] = st
	}
	switch m.Phase {
	case PhaseInit:
		// Only the declared origin may init its own instance.
		if from != origin || st.echoed {
			return
		}
		st.echoed = true
		env.Broadcast(e.msg(PhaseEcho, m.Slot, origin, m.Val))
	case PhaseEcho:
		set := e.tallies.Add(bucket{key, PhaseEcho, m.Val}, from)
		if !st.readied && e.qs.IsQuorum(set) {
			st.readied = true
			env.Broadcast(e.msg(PhaseReady, m.Slot, origin, m.Val))
		}
	case PhaseReady:
		set := e.tallies.Add(bucket{key, PhaseReady, m.Val}, from)
		// Amplification: f+1 readys prove an honest node saw an echo
		// quorum, so it is safe to join.
		if !st.readied && e.qs.IsBlocking(e.self, set) {
			st.readied = true
			env.Broadcast(e.msg(PhaseReady, m.Slot, origin, m.Val))
		}
		if !st.delivered && e.qs.IsQuorum(set) {
			st.delivered = true
			e.deliver(env, Delivery{Instance: m.Slot, Sender: origin, Val: m.Val})
		}
	}
}

func (e *Engine) msg(phase uint8, inst types.Slot, origin types.NodeID, val types.Value) types.GenericVote {
	return types.GenericVote{Proto: e.proto, Phase: phase, View: types.View(origin), Slot: inst, Val: val}
}

// originOf is the broadcast's origin a message carries in its View field,
// false when the value is no NodeID: where int is 32 bits wide, converting a
// wider View would alias a member's ID.
func originOf(v types.View) (types.NodeID, bool) {
	id := types.NodeID(v)
	return id, types.View(id) == v
}

// Node wraps a single-instance Engine as a types.Machine: node Sender
// broadcasts Input at start; every node decides slot 0 on delivery. Used by
// tests and the Table 1 latency harness.
type Node struct {
	NodeID types.NodeID
	Nodes  int
	Sender types.NodeID
	Input  types.Value

	engine *Engine
}

var _ types.Machine = (*Node)(nil)

// ID implements types.Machine.
func (n *Node) ID() types.NodeID { return n.NodeID }

// Start implements types.Machine.
func (n *Node) Start(env types.Env) {
	engine, err := NewEngine(n.NodeID, n.Nodes, types.ProtoRBC, func(env types.Env, d Delivery) {
		env.Decide(0, d.Val)
	})
	if err != nil {
		// Static misconfiguration in a test harness; surface loudly.
		panic(err)
	}
	n.engine = engine
	if n.NodeID == n.Sender {
		n.engine.Broadcast(env, 0, n.Input)
	}
}

// Deliver implements types.Machine.
func (n *Node) Deliver(env types.Env, from types.NodeID, msg types.Message) {
	if m, ok := msg.(types.GenericVote); ok {
		n.engine.Handle(env, from, m)
	}
}

// Tick implements types.Machine.
func (n *Node) Tick(types.Env, types.TimerID) {}
