// Package pbft implements the unauthenticated PBFT baseline of Table 1:
// good-case latency 3 message delays (pre-prepare, prepare, commit) and 7
// with a view change (request, view-change, view-change-ack, new-view, then
// the three normal phases). View-change and new-view messages carry O(n)
// prepare evidence, which is why every node communicates O(n²) bits in the
// worst case and the system total is O(n³) — the communication column the
// paper contrasts with TetraBFT's O(n²).
//
// Two storage flavors are modeled, matching Table 1's two PBFT rows: the
// bounded variant keeps constant state; the unbounded variant retains its
// full message log (StorageBytes grows without bound across views).
package pbft

import (
	"fmt"

	"tetrabft/internal/quorum"
	"tetrabft/internal/types"
)

// Phase numbers carried in messages.
const (
	phasePrePrepare uint8 = iota + 1
	phasePrepare
	phaseCommit
	phaseRequest
	phaseViewChange
	phaseAck
	phaseNewView
)

// Config parameterizes a PBFT node.
type Config struct {
	ID           types.NodeID
	Nodes        int
	InitialValue types.Value
	Delta        types.Duration
	// TimeoutFactor scales the view timeout (default 9, matching the other
	// protocols so Table 1 comparisons share the same timeout policy).
	TimeoutFactor int
	// Unbounded retains the full message log (Table 1's unbounded-storage
	// PBFT row).
	Unbounded bool
}

// Node is a PBFT node; it implements types.Machine.
type Node struct {
	cfg Config
	qs  quorum.Threshold

	view      types.View
	decided   bool
	decision  types.Value
	highestVC types.View

	// prepared is the constant-size certificate state: the highest
	// (view, value) this node prepared.
	prepared types.VoteRef

	proposals map[types.View]types.Value
	tallies   quorum.Tally[bucket]         // senders per phase, view and value
	vcBest    map[types.View]types.VoteRef // best prepared cert seen in VCs
	sent      map[step]bool
	pendingNV map[types.View]types.Value // value to pre-prepare after new-view
	vcAttempt types.View                 // consecutive timeouts in the current view

	logBytes int64 // unbounded variant: total bytes retained
}

// bucket names the messages tallied together: one phase, view and value.
// The request, view-change and ack phases are tallied per view, under "".
type bucket struct {
	phase uint8
	view  types.View
	val   types.Value
}

// step names a message a node sends at most once: one phase in one view.
type step struct {
	phase uint8
	view  types.View
}

// prePrepareTimerBase offsets the leader's deferred pre-prepare timers so
// they cannot collide with view timers. The paper's Table 1 counts new-view
// and pre-prepare as separate message delays; the leader therefore issues
// its pre-prepare one delay after broadcasting the new-view.
const prePrepareTimerBase types.TimerID = 1 << 40

var _ types.Machine = (*Node)(nil)

// NewNode builds a PBFT node.
func NewNode(cfg Config) (*Node, error) {
	qs, err := quorum.NewThreshold(cfg.Nodes)
	if err != nil {
		return nil, fmt.Errorf("pbft: %w", err)
	}
	if cfg.Delta <= 0 {
		cfg.Delta = 10
	}
	if cfg.TimeoutFactor <= 0 {
		cfg.TimeoutFactor = 9
	}
	return &Node{
		cfg:       cfg,
		qs:        qs,
		proposals: make(map[types.View]types.Value),
		tallies:   make(quorum.Tally[bucket]),
		vcBest:    make(map[types.View]types.VoteRef),
		sent:      make(map[step]bool),
		pendingNV: make(map[types.View]types.Value),
	}, nil
}

// ID implements types.Machine.
func (n *Node) ID() types.NodeID { return n.cfg.ID }

// Decided returns the decision, if any.
func (n *Node) Decided() (types.Value, bool) { return n.decision, n.decided }

// View returns the current view.
func (n *Node) View() types.View { return n.view }

// StorageBytes reports the durable footprint: constant for the bounded
// variant, the whole log for the unbounded one.
func (n *Node) StorageBytes() int64 {
	if n.cfg.Unbounded {
		return n.logBytes
	}
	return int64(16 + len(n.prepared.Val))
}

// Leader returns the round-robin leader (primary) of a view.
func (n *Node) Leader(v types.View) types.NodeID {
	return types.NodeID(int64(v) % int64(n.cfg.Nodes))
}

// Start implements types.Machine.
func (n *Node) Start(env types.Env) {
	n.enterView(env, 0)
}

// Tick implements types.Machine: the view timer fired. PBFT's view change
// begins with a request round.
func (n *Node) Tick(env types.Env, id types.TimerID) {
	if id >= prePrepareTimerBase {
		n.firePrePrepare(env, types.View(id-prePrepareTimerBase))
		return
	}
	if n.decided || types.View(id) != n.view {
		return
	}
	// Escalate on repeated timeouts: if the change to view v+1 stalled
	// (e.g. its new-view was lost), request v+2 next, as PBFT does.
	n.vcAttempt++
	target := n.view + n.vcAttempt
	if !n.sent[step{phaseRequest, target}] {
		n.sent[step{phaseRequest, target}] = true
		env.Broadcast(types.GenericVote{Proto: types.ProtoPBFT, Phase: phaseRequest, View: target})
	}
	env.SetTimer(id, types.Duration(n.cfg.TimeoutFactor)*n.cfg.Delta)
}

// Deliver implements types.Machine.
func (n *Node) Deliver(env types.Env, from types.NodeID, msg types.Message) {
	switch m := msg.(type) {
	case types.GenericVote:
		if m.Proto != types.ProtoPBFT {
			return
		}
		n.account(msg)
		switch m.Phase {
		case phasePrePrepare:
			n.onPrePrepare(env, from, m.View, m.Val)
		case phasePrepare, phaseCommit:
			n.onVote(env, from, m)
		case phaseRequest:
			n.onRequest(env, from, m)
		}
	case types.Evidence:
		if m.Proto != types.ProtoPBFT {
			return
		}
		n.account(msg)
		switch m.Phase {
		case phaseViewChange:
			n.onViewChange(env, from, m)
		case phaseAck:
			n.onAck(env, from, m)
		case phaseNewView:
			n.onNewView(env, from, m)
		}
	}
}

func (n *Node) account(msg types.Message) {
	if n.cfg.Unbounded {
		n.logBytes += int64(types.EncodedSize(msg))
	}
}

func (n *Node) onPrePrepare(env types.Env, from types.NodeID, v types.View, val types.Value) {
	if v < n.view || from != n.Leader(v) {
		return
	}
	if _, dup := n.proposals[v]; dup {
		return
	}
	n.proposals[v] = val
	n.tryPrepare(env)
}

func (n *Node) tryPrepare(env types.Env) {
	val, ok := n.proposals[n.view]
	if !ok || n.sent[step{phasePrepare, n.view}] {
		return
	}
	n.sent[step{phasePrepare, n.view}] = true
	env.Broadcast(types.GenericVote{Proto: types.ProtoPBFT, Phase: phasePrepare, View: n.view, Val: val})
}

func (n *Node) onVote(env types.Env, from types.NodeID, m types.GenericVote) {
	if m.View < n.view && m.Phase != phaseCommit {
		return
	}
	if !n.qs.IsQuorum(n.tallies.Add(bucket{m.Phase, m.View, m.Val}, from)) {
		return
	}
	switch m.Phase {
	case phasePrepare:
		if m.View != n.view || n.sent[step{phaseCommit, m.View}] {
			return
		}
		n.prepared = types.Vote(m.View, m.Val) // prepared certificate
		n.sent[step{phaseCommit, m.View}] = true
		env.Broadcast(types.GenericVote{Proto: types.ProtoPBFT, Phase: phaseCommit, View: m.View, Val: m.Val})
	case phaseCommit:
		if !n.decided {
			n.decided = true
			n.decision = m.Val
			env.Decide(0, m.Val)
		}
	}
}

func (n *Node) onRequest(env types.Env, from types.NodeID, m types.GenericVote) {
	if m.View <= n.view {
		return
	}
	set := n.tallies.Add(bucket{phaseRequest, m.View, ""}, from)
	if !n.qs.IsBlocking(n.cfg.ID, set) || n.sent[step{phaseViewChange, m.View}] {
		return
	}
	n.sent[step{phaseViewChange, m.View}] = true
	// The view-change carries O(n) prepare evidence: one VoteRef per
	// quorum member that backed this node's prepared certificate. This is
	// the O(n)-sized message that makes PBFT's worst case O(n³) total.
	env.Broadcast(types.Evidence{
		Proto:    types.ProtoPBFT,
		Phase:    phaseViewChange,
		View:     m.View,
		Val:      n.prepared.Val,
		Evidence: n.prepareEvidence(),
	})
}

// prepareEvidence reproduces the certificate this node would forward:
// 2f+1 vote references (or none if nothing prepared).
func (n *Node) prepareEvidence() []types.VoteRef {
	if !n.prepared.Valid {
		return nil
	}
	out := make([]types.VoteRef, 0, n.qs.QuorumSize())
	for i := 0; i < n.qs.QuorumSize(); i++ {
		out = append(out, n.prepared)
	}
	return out
}

func (n *Node) onViewChange(env types.Env, from types.NodeID, m types.Evidence) {
	if m.View <= n.view {
		return
	}
	set := n.tallies.Add(bucket{phaseViewChange, m.View, ""}, from)
	// Track the best (highest-view) prepared certificate among VCs.
	if len(m.Evidence) >= n.qs.QuorumSize() {
		ref := m.Evidence[0]
		best := n.vcBest[m.View]
		if ref.Valid && (!best.Valid || ref.View > best.View) {
			n.vcBest[m.View] = ref
		}
	}
	if n.qs.IsQuorum(set) && !n.sent[step{phaseAck, m.View}] {
		n.sent[step{phaseAck, m.View}] = true
		env.Send(n.Leader(m.View), types.Evidence{Proto: types.ProtoPBFT, Phase: phaseAck, View: m.View})
	}
}

func (n *Node) onAck(env types.Env, from types.NodeID, m types.Evidence) {
	if m.View <= n.view || n.Leader(m.View) != n.cfg.ID {
		return
	}
	if !n.qs.IsQuorum(n.tallies.Add(bucket{phaseAck, m.View, ""}, from)) || n.sent[step{phaseNewView, m.View}] {
		return
	}
	n.sent[step{phaseNewView, m.View}] = true
	val := n.cfg.InitialValue
	if best := n.vcBest[m.View]; best.Valid {
		val = best.Val
	} else if n.prepared.Valid {
		val = n.prepared.Val
	}
	// The new-view also carries O(n) evidence justifying the choice. The
	// fresh pre-prepare follows one delay later (see prePrepareTimerBase).
	n.pendingNV[m.View] = val
	env.Broadcast(types.Evidence{
		Proto:    types.ProtoPBFT,
		Phase:    phaseNewView,
		View:     m.View,
		Val:      val,
		Evidence: n.prepareEvidence(),
	})
	env.SetTimer(prePrepareTimerBase+types.TimerID(m.View), 1)
}

func (n *Node) firePrePrepare(env types.Env, v types.View) {
	val, ok := n.pendingNV[v]
	if !ok || n.sent[step{phasePrePrepare, v}] || n.Leader(v) != n.cfg.ID {
		return
	}
	n.sent[step{phasePrePrepare, v}] = true
	env.Broadcast(types.GenericVote{Proto: types.ProtoPBFT, Phase: phasePrePrepare, View: v, Val: val})
}

func (n *Node) onNewView(env types.Env, from types.NodeID, m types.Evidence) {
	if m.View <= n.view || from != n.Leader(m.View) {
		return
	}
	n.view = m.View
	n.vcAttempt = 0
	env.SetTimer(types.TimerID(m.View), types.Duration(n.cfg.TimeoutFactor)*n.cfg.Delta)
	n.tryPrepare(env)
}

func (n *Node) enterView(env types.Env, v types.View) {
	n.view = v
	env.SetTimer(types.TimerID(v), types.Duration(n.cfg.TimeoutFactor)*n.cfg.Delta)
	if v == 0 && n.Leader(0) == n.cfg.ID {
		n.sent[step{phasePrePrepare, 0}] = true
		env.Broadcast(types.GenericVote{Proto: types.ProtoPBFT, Phase: phasePrePrepare, View: 0, Val: n.cfg.InitialValue})
	}
}
