// Package liconsensus is the Table 1 baseline for the protocol of Li,
// Chan and Lesani [24]: Byzantine consensus built from two chained
// instances of 3-phase reliable broadcast, giving a good-case latency of 6
// message delays and no optimistic responsiveness. The paper characterizes
// it by exactly those observables (6/6 delays, non-responsive, unbounded
// storage); this reproduction implements the two-RBC good-case pipeline in
// the homogeneous model.
//
// The substitution: the original is stated for heterogeneous quorum
// systems, where each node names its own quorums. Here every node uses the
// same threshold system over n = 3f+1 nodes (quorum.Threshold: any n−f
// nodes are a quorum, any f+1 a blocking set). That is the heterogeneous
// model's special case in which all nodes' quorums coincide, so the three
// observables above are unchanged; what the reproduction cannot show is
// behaviour that depends on nodes disagreeing about their quorums.
package liconsensus

import (
	"fmt"

	"tetrabft/internal/quorum"
	"tetrabft/internal/rbc"
	"tetrabft/internal/types"
)

// Config parameterizes a node.
type Config struct {
	ID           types.NodeID
	Nodes        int
	Leader       types.NodeID
	InitialValue types.Value
}

// Node implements types.Machine: the leader reliable-broadcasts its
// proposal (3 delays); upon delivery every node reliable-broadcasts a vote;
// a quorum of delivered matching votes decides (3 more delays).
type Node struct {
	cfg    Config
	qs     quorum.Threshold
	engine *rbc.Engine

	votes   quorum.Tally[types.Value]
	decided bool

	// logBytes models the protocol's unbounded storage (Table 1): every
	// delivered broadcast is retained.
	logBytes int64
}

var _ types.Machine = (*Node)(nil)

// proposalInstance is the leader's RBC instance; vote instances are offset
// by each voter's ID.
const proposalInstance types.Slot = 0

// NewNode builds a node.
func NewNode(cfg Config) (*Node, error) {
	qs, err := quorum.NewThreshold(cfg.Nodes)
	if err != nil {
		return nil, fmt.Errorf("liconsensus: %w", err)
	}
	return &Node{cfg: cfg, qs: qs, votes: make(quorum.Tally[types.Value])}, nil
}

// ID implements types.Machine.
func (n *Node) ID() types.NodeID { return n.cfg.ID }

// StorageBytes reports the retained log size (unbounded, per Table 1).
func (n *Node) StorageBytes() int64 { return n.logBytes }

// Start implements types.Machine.
func (n *Node) Start(env types.Env) {
	engine, err := rbc.NewEngine(n.cfg.ID, n.cfg.Nodes, types.ProtoLi, n.onDeliver)
	if err != nil {
		panic(err) // static misconfiguration
	}
	n.engine = engine
	if n.cfg.ID == n.cfg.Leader {
		n.engine.Broadcast(env, proposalInstance, n.cfg.InitialValue)
	}
}

func (n *Node) onDeliver(env types.Env, d rbc.Delivery) {
	n.logBytes += int64(len(d.Val)) + 16
	if d.Instance == proposalInstance {
		if d.Sender != n.cfg.Leader {
			return
		}
		// Second round: reliable-broadcast our vote for the proposal.
		n.engine.Broadcast(env, 1+types.Slot(n.cfg.ID), d.Val)
		return
	}
	// A vote instance delivered: count it.
	if set := n.votes.Add(d.Val, d.Sender); !n.decided && n.qs.IsQuorum(set) {
		n.decided = true
		env.Decide(0, d.Val)
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
