// Package ithotstuff implements the two Information-Theoretic HotStuff
// baselines of Table 1:
//
//   - the full IT-HS protocol of Abraham and Stern [3]: optimistically
//     responsive, constant storage, O(n²) communication, good-case latency
//     6 message delays (propose, echo, key1, key2, key3, lock) and 9 with a
//     view change (view-change, request, suggest, propose, then the five
//     voting phases);
//   - the earlier blog version [4]: non-responsive, good-case latency 4
//     (propose, echo, accept, lock) and 5 with a view change, where the new
//     leader must wait a full Δ before proposing instead of reacting to a
//     quorum — the non-responsiveness TetraBFT's Table 1 row calls out.
//
// The implementations are latency- and bit-faithful reproductions for the
// paper's comparison experiments: the good-case and view-change message
// flows, quorum thresholds, storage footprints and message sizes match the
// protocols' published structure, while the fine-grained safety bookkeeping
// of IT-HS's keys/locks is simplified to highest-lock selection (the
// experiments measure latency, bits and storage — TetraBFT's own safety
// machinery is implemented in full in internal/core).
package ithotstuff

import (
	"errors"
	"fmt"

	"tetrabft/internal/quorum"
	"tetrabft/internal/types"
)

// Phase numbers carried in types.GenericVote for IT-HS.
const (
	phasePropose uint8 = iota + 1
	phaseEcho
	phaseKey1
	phaseKey2
	phaseKey3
	phaseLock
	phaseViewChange
	phaseRequest
	phaseSuggest
	// Blog variant reuses phasePropose/phaseEcho and:
	phaseAccept
)

// Variant selects the protocol flavor.
type Variant int

// Protocol flavors.
const (
	// Full is IT-HS [3]: responsive, 6-phase good case.
	Full Variant = iota + 1
	// Blog is the blog version [4]: non-responsive, 4-phase good case.
	Blog
)

// Config parameterizes an IT-HS node.
type Config struct {
	ID           types.NodeID
	Nodes        int
	Variant      Variant
	InitialValue types.Value
	// Delta is the assumed network bound Δ; the view timeout is 9Δ and the
	// Blog variant's new leader waits a full Δ before proposing.
	Delta types.Duration
	// TimeoutFactor scales the view timeout (default 9, as for TetraBFT,
	// keeping the comparison apples-to-apples).
	TimeoutFactor int
}

// Node is an IT-HS node; it implements types.Machine.
type Node struct {
	cfg   Config
	qs    quorum.Threshold
	proto types.Proto

	view      types.View
	decided   bool
	decision  types.Value
	highestVC types.View

	// lock is the constant-size persistent state: the highest locked
	// (view, value) pair.
	lock types.VoteRef

	proposals map[types.View]types.Value
	tallies   quorum.Tally[bucket] // senders per phase, view and value
	suggests  map[types.View]map[types.NodeID]types.VoteRef
	sent      map[step]bool
}

// bucket names the messages tallied together: one phase, view and value.
// View-change calls and suggests are tallied per view, under "".
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

var _ types.Machine = (*Node)(nil)

// NewNode builds an IT-HS node.
func NewNode(cfg Config) (*Node, error) {
	if cfg.Variant != Full && cfg.Variant != Blog {
		return nil, errors.New("ithotstuff: config needs a Variant")
	}
	qs, err := quorum.NewThreshold(cfg.Nodes)
	if err != nil {
		return nil, fmt.Errorf("ithotstuff: %w", err)
	}
	if cfg.Delta <= 0 {
		cfg.Delta = 10
	}
	if cfg.TimeoutFactor <= 0 {
		cfg.TimeoutFactor = 9
	}
	proto := types.ProtoITHS
	if cfg.Variant == Blog {
		proto = types.ProtoITHSBlog
	}
	return &Node{
		cfg:       cfg,
		qs:        qs,
		proto:     proto,
		proposals: make(map[types.View]types.Value),
		tallies:   make(quorum.Tally[bucket]),
		suggests:  make(map[types.View]map[types.NodeID]types.VoteRef),
		sent:      make(map[step]bool),
	}, nil
}

// ID implements types.Machine.
func (n *Node) ID() types.NodeID { return n.cfg.ID }

// Decided returns the decision, if any.
func (n *Node) Decided() (types.Value, bool) { return n.decision, n.decided }

// View returns the current view.
func (n *Node) View() types.View { return n.view }

// StorageBytes reports the persistent footprint: one lock reference plus
// two view counters (constant, as in Table 1).
func (n *Node) StorageBytes() int64 {
	return int64(16 + len(n.lock.Val))
}

// Leader returns the round-robin leader of a view.
func (n *Node) Leader(v types.View) types.NodeID {
	return types.NodeID(int64(v) % int64(n.cfg.Nodes))
}

// Start implements types.Machine.
func (n *Node) Start(env types.Env) {
	n.enterView(env, 0)
}

// Tick implements types.Machine: either the view timer (negative IDs would
// collide with views, so views are the IDs and the Blog proposer wait uses
// a large offset).
func (n *Node) Tick(env types.Env, id types.TimerID) {
	if id >= blogProposeTimerBase {
		n.blogPropose(env, types.View(id-blogProposeTimerBase))
		return
	}
	if n.decided || types.View(id) != n.view {
		return
	}
	if n.view+1 > n.highestVC {
		n.sendViewChange(env, n.view+1)
	} else {
		env.Broadcast(n.msg(phaseViewChange, n.highestVC, ""))
	}
	env.SetTimer(id, types.Duration(n.cfg.TimeoutFactor)*n.cfg.Delta)
}

const blogProposeTimerBase types.TimerID = 1 << 40

// Deliver implements types.Machine.
func (n *Node) Deliver(env types.Env, from types.NodeID, msg types.Message) {
	m, ok := msg.(types.GenericVote)
	if !ok || m.Proto != n.proto {
		return
	}
	switch m.Phase {
	case phasePropose:
		n.onPropose(env, from, m)
	case phaseViewChange:
		n.onViewChange(env, from, m)
	case phaseRequest:
		n.onRequest(env, from, m)
	case phaseSuggest:
		n.onSuggest(env, from, m)
	default:
		n.onVote(env, from, m)
	}
}

func (n *Node) onPropose(env types.Env, from types.NodeID, m types.GenericVote) {
	if m.View < n.view || from != n.Leader(m.View) {
		return
	}
	if _, dup := n.proposals[m.View]; dup {
		return
	}
	n.proposals[m.View] = m.Val
	if m.View == n.view {
		n.tryEcho(env)
	}
}

// tryEcho sends the first vote phase for the current proposal. IT-HS's echo
// does not prove safety (the property the paper contrasts with TetraBFT);
// nodes echo unless the proposal conflicts with their own lock's view being
// higher (highest-lock rule).
func (n *Node) tryEcho(env types.Env) {
	val, ok := n.proposals[n.view]
	if !ok || n.sent[step{phaseEcho, n.view}] {
		return
	}
	if n.lock.Valid && n.view > 0 && n.lock.View >= n.view {
		return // stale leader; our lock is newer
	}
	n.sent[step{phaseEcho, n.view}] = true
	env.Broadcast(n.msg(phaseEcho, n.view, val))
}

// chain returns the vote-phase succession for the variant.
func (n *Node) chain() []uint8 {
	if n.cfg.Variant == Blog {
		return []uint8{phaseEcho, phaseAccept, phaseLock}
	}
	return []uint8{phaseEcho, phaseKey1, phaseKey2, phaseKey3, phaseLock}
}

func (n *Node) onVote(env types.Env, from types.NodeID, m types.GenericVote) {
	if m.View < n.view && m.Phase != phaseLock {
		return
	}
	chain := n.chain()
	idx := -1
	for i, p := range chain {
		if p == m.Phase {
			idx = i
		}
	}
	if idx < 0 {
		return
	}
	if !n.qs.IsQuorum(n.tallies.Add(bucket{m.Phase, m.View, m.Val}, from)) {
		return
	}
	if m.Phase == phaseLock {
		// A quorum of lock messages decides (any view).
		if !n.decided {
			n.decided = true
			n.decision = m.Val
			env.Decide(0, m.Val)
		}
		return
	}
	if m.View != n.view {
		return
	}
	next := chain[idx+1]
	if n.sent[step{next, m.View}] {
		return
	}
	n.sent[step{next, m.View}] = true
	if next == phaseLock {
		n.lock = types.Vote(m.View, m.Val) // persistent lock update
	}
	env.Broadcast(n.msg(next, m.View, m.Val))
}

func (n *Node) onViewChange(env types.Env, from types.NodeID, m types.GenericVote) {
	if m.View <= 0 {
		return
	}
	set := n.tallies.Add(bucket{phaseViewChange, m.View, ""}, from)
	if m.View > n.highestVC && n.qs.IsBlocking(n.cfg.ID, set) {
		n.sendViewChange(env, m.View)
	}
	if m.View > n.view && n.qs.IsQuorum(set) {
		n.enterView(env, m.View)
	}
}

func (n *Node) sendViewChange(env types.Env, v types.View) {
	if v <= n.highestVC {
		return
	}
	n.highestVC = v
	env.Broadcast(n.msg(phaseViewChange, v, ""))
}

func (n *Node) enterView(env types.Env, v types.View) {
	n.view = v
	env.SetTimer(types.TimerID(v), types.Duration(n.cfg.TimeoutFactor)*n.cfg.Delta)
	if v == 0 {
		if n.Leader(0) == n.cfg.ID {
			n.sent[step{phasePropose, 0}] = true
			env.Broadcast(n.msg(phasePropose, 0, n.cfg.InitialValue))
		}
		return
	}
	switch n.cfg.Variant {
	case Full:
		// Responsive: the new leader solicits suggest messages (request +
		// suggest rounds, per the paper's latency accounting for IT-HS).
		if n.Leader(v) == n.cfg.ID {
			env.Broadcast(n.msg(phaseRequest, v, ""))
		}
	case Blog:
		// Non-responsive: the leader waits a full Δ before proposing with
		// whatever locks it has seen, instead of reacting to a quorum.
		if n.Leader(v) == n.cfg.ID {
			env.SetTimer(blogProposeTimerBase+types.TimerID(v), n.cfg.Delta)
		}
	}
	n.tryEcho(env)
}

func (n *Node) onRequest(env types.Env, from types.NodeID, m types.GenericVote) {
	if m.View != n.view || from != n.Leader(m.View) {
		return
	}
	// Report our lock to the leader.
	val := types.Value("")
	v := types.View(-1)
	if n.lock.Valid {
		val, v = n.lock.Val, n.lock.View
	}
	env.Send(from, types.GenericVote{Proto: n.proto, Phase: phaseSuggest, View: m.View, Slot: types.Slot(v), Val: val})
}

func (n *Node) onSuggest(env types.Env, from types.NodeID, m types.GenericVote) {
	if m.View < n.view || n.Leader(m.View) != n.cfg.ID {
		return
	}
	perView := n.suggests[m.View]
	if perView == nil {
		perView = make(map[types.NodeID]types.VoteRef)
		n.suggests[m.View] = perView
	}
	if _, dup := perView[from]; dup {
		return
	}
	ref := types.VoteRef{}
	if m.Slot >= 0 {
		ref = types.Vote(types.View(m.Slot), m.Val)
	}
	perView[from] = ref
	set := n.tallies.Add(bucket{phaseSuggest, m.View, ""}, from)
	if m.View != n.view || n.sent[step{phasePropose, m.View}] {
		return
	}
	// Responsive: propose as soon as a quorum of suggests arrives.
	if n.qs.IsQuorum(set) {
		n.sent[step{phasePropose, m.View}] = true
		env.Broadcast(n.msg(phasePropose, m.View, n.pickValue(perView)))
	}
}

// blogPropose fires after the Blog leader's fixed Δ wait.
func (n *Node) blogPropose(env types.Env, v types.View) {
	if v != n.view || n.sent[step{phasePropose, v}] || n.Leader(v) != n.cfg.ID {
		return
	}
	n.sent[step{phasePropose, v}] = true
	env.Broadcast(n.msg(phasePropose, v, n.pickValue(n.suggests[v])))
}

// pickValue selects the highest-view reported lock, defaulting to the
// leader's input.
func (n *Node) pickValue(suggests map[types.NodeID]types.VoteRef) types.Value {
	best := types.VoteRef{}
	for _, ref := range suggests {
		if ref.Valid && (!best.Valid || ref.View > best.View) {
			best = ref
		}
	}
	if n.lock.Valid && (!best.Valid || n.lock.View > best.View) {
		best = n.lock
	}
	if best.Valid {
		return best.Val
	}
	return n.cfg.InitialValue
}

func (n *Node) msg(phase uint8, v types.View, val types.Value) types.GenericVote {
	return types.GenericVote{Proto: n.proto, Phase: phase, View: v, Val: val}
}
