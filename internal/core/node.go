// Package core implements single-shot TetraBFT (Section 3 of the paper): a
// partially synchronous, unauthenticated BFT consensus protocol with optimal
// resilience (n ≥ 3f+1), optimistic responsiveness, constant persistent
// storage, O(n²) communication per view, and a good-case latency of 5
// message delays.
//
// A view proceeds through seven phases: suggest/proof (skipped in view 0),
// proposal, vote-1, vote-2, vote-3, vote-4, and view-change. Nodes determine
// value safety with Rules 1-4 (rules.go), decide on a quorum of vote-4
// messages, and change views on timeout with f+1 echo amplification.
package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"tetrabft/internal/quorum"
	"tetrabft/internal/trace"
	"tetrabft/internal/types"
)

// DefaultTimeoutFactor is the paper's 9Δ view timeout (Section 3.2: up to 2Δ
// view-change spread + 6Δ of in-view processing, plus a safety margin).
const DefaultTimeoutFactor = 9

// Mutation deliberately breaks the protocol for adversarial self-tests: the
// repository's agreement monitors and model checker must catch every mutant.
// Never use outside tests.
type Mutation int

// Supported mutations.
const (
	// MutationNone runs the correct protocol.
	MutationNone Mutation = iota
	// MutationSkipRule3 makes followers vote for any proposal without
	// checking Rule 3 (destroys cross-view safety).
	MutationSkipRule3
	// MutationNoPrevVote drops the second-highest vote tracking from the
	// persistent state (breaks Lemma 1 and with it liveness/safety
	// interplay after conflicting views).
	MutationNoPrevVote
)

// Persister stores the node's constant-size durable state. Persist is
// invoked before any message that depends on the new state is sent
// (write-ahead discipline). A failing Persister halts the node.
type Persister interface {
	Persist(state PersistentState) error
}

// Config parameterizes a TetraBFT node.
type Config struct {
	// ID is this node's identity; it must be a member of Quorum.
	ID types.NodeID
	// Quorum is the quorum system. If nil, a threshold system over Nodes
	// nodes is used.
	Quorum quorum.System
	// Nodes is the membership size used when Quorum is nil.
	Nodes int
	// InitialValue is this node's consensus input.
	InitialValue types.Value
	// Delta is the post-GST network delay bound Δ in ticks (default 10).
	Delta types.Duration
	// TimeoutFactor scales the view timeout to TimeoutFactor×Δ
	// (default 9, per the paper).
	TimeoutFactor int
	// Persist optionally stores durable state (nil = in-memory only).
	Persist Persister
	// Tracer optionally observes protocol events.
	Tracer trace.Tracer
	// Mutation optionally breaks the protocol for self-tests.
	Mutation Mutation
}

// Node is a single-shot TetraBFT node. It implements types.Machine and must
// be driven by a single-threaded runtime (the simulator or a transport
// runtime).
type Node struct {
	cfg     Config
	qs      quorum.System
	members []types.NodeID

	// Durable state (constant size).
	view      types.View
	votes     VoteState
	highestVC types.View // highest view we broadcast a view-change for

	decided  bool
	decision types.Value
	halted   bool

	// Per-run transient state (bounded by O(n) per active view).
	proposals map[types.View]types.Proposal
	suggests  map[types.View]map[types.NodeID]types.SuggestMsg
	proofs    map[types.View]map[types.NodeID]types.ProofMsg
	tallies   quorum.Tally[bucket]
	vcSets    quorum.Tally[types.View]

	sentVote [5]bool // indices 1..4; reset on view entry
	proposed bool    // leader has proposed in the current view
}

// bucket names the votes tallied together: one phase, view and value.
type bucket struct {
	phase uint8
	view  types.View
	val   types.Value
}

var _ types.Machine = (*Node)(nil)

// NewNode builds a fresh node starting in view 0.
func NewNode(cfg Config) (*Node, error) {
	n, err := newNode(cfg)
	if err != nil {
		return nil, err
	}
	return n, nil
}

// Restore rebuilds a node from persisted state after a crash. The node
// resumes in its old view with its old vote history; per-view message
// buffers are rebuilt from the network (peers re-send nothing, but the
// protocol's view-change path recovers liveness).
func Restore(cfg Config, state PersistentState) (*Node, error) {
	n, err := newNode(cfg)
	if err != nil {
		return nil, err
	}
	if state.View < 0 {
		return nil, fmt.Errorf("core: invalid restored view %d", state.View)
	}
	n.view = state.View
	n.votes = state.Votes
	n.highestVC = state.HighestVC
	return n, nil
}

func newNode(cfg Config) (*Node, error) {
	if cfg.Quorum == nil {
		if cfg.Nodes <= 0 {
			return nil, errors.New("core: config needs either Quorum or Nodes")
		}
		t, err := quorum.NewThreshold(cfg.Nodes)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		cfg.Quorum = t
	}
	if cfg.Delta <= 0 {
		cfg.Delta = 10
	}
	if cfg.TimeoutFactor <= 0 {
		cfg.TimeoutFactor = DefaultTimeoutFactor
	}
	members := cfg.Quorum.Members()
	found := false
	for _, m := range members {
		if m == cfg.ID {
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("core: node %d is not a member of the quorum system", cfg.ID)
	}
	return &Node{
		cfg:       cfg,
		qs:        cfg.Quorum,
		members:   members,
		proposals: make(map[types.View]types.Proposal),
		suggests:  make(map[types.View]map[types.NodeID]types.SuggestMsg),
		proofs:    make(map[types.View]map[types.NodeID]types.ProofMsg),
		tallies:   make(quorum.Tally[bucket]),
		vcSets:    make(quorum.Tally[types.View]),
	}, nil
}

// ID implements types.Machine.
func (n *Node) ID() types.NodeID { return n.cfg.ID }

// View returns the node's current view.
func (n *Node) View() types.View { return n.view }

// Decided returns the decision, if one was reached.
func (n *Node) Decided() (types.Value, bool) { return n.decision, n.decided }

// Halted reports whether the node stopped after a persistence failure.
func (n *Node) Halted() bool { return n.halted }

// Snapshot returns the node's durable state.
func (n *Node) Snapshot() PersistentState {
	return PersistentState{View: n.view, HighestVC: n.highestVC, Votes: n.votes}
}

// StorageBytes reports the durable footprint: the size of Snapshot().
func (n *Node) StorageBytes() int64 { return int64(n.Snapshot().PersistentSize()) }

// Leader returns the (round-robin) leader of a view.
func (n *Node) Leader(v types.View) types.NodeID {
	return n.members[int(int64(v)%int64(len(n.members)))]
}

// Start implements types.Machine: the node enters its current view (0 for a
// fresh node, the restored view after a crash).
func (n *Node) Start(env types.Env) {
	n.enterView(env, n.view)
}

// Deliver implements types.Machine.
func (n *Node) Deliver(env types.Env, from types.NodeID, msg types.Message) {
	if n.halted {
		return
	}
	switch m := msg.(type) {
	case types.Proposal:
		n.onProposal(env, from, m)
	case types.VoteMsg:
		n.onVote(env, from, m)
	case types.SuggestMsg:
		n.onSuggest(env, from, m)
	case types.ProofMsg:
		n.onProof(env, from, m)
	case types.ViewChange:
		n.onViewChange(env, from, m)
	default:
		// Foreign message kinds (e.g. multi-shot traffic) are ignored.
	}
}

// Tick implements types.Machine: the 9Δ view timer expired. If the timer is
// for the current view and the node has not decided, it calls for the next
// view (Section 3.2). Messages sent before GST may be lost (Section 2), so
// while the node remains stuck it re-arms the timer and retransmits its
// pending view-change — the standard recovery that makes post-GST view
// synchronization work from any pre-GST state.
func (n *Node) Tick(env types.Env, id types.TimerID) {
	if n.halted || n.decided {
		return
	}
	if types.View(id) != n.view {
		return // stale timer from an abandoned view
	}
	if n.view+1 > n.highestVC {
		n.sendViewChange(env, n.view+1)
	} else {
		// Already called for a view change that has not happened yet; the
		// broadcast may have been lost during asynchrony. Retransmit.
		env.Broadcast(types.ViewChange{View: n.highestVC})
	}
	env.SetTimer(id, types.Duration(n.cfg.TimeoutFactor)*n.cfg.Delta)
}

func (n *Node) onProposal(env types.Env, from types.NodeID, m types.Proposal) {
	if m.View < n.view || from != n.Leader(m.View) {
		return
	}
	if _, dup := n.proposals[m.View]; dup {
		return // first proposal per view wins; equivocation is ignored
	}
	n.proposals[m.View] = m
	if m.View == n.view {
		n.tryVote1(env)
	}
}

func (n *Node) onVote(env types.Env, from types.NodeID, m types.VoteMsg) {
	if m.Phase < 1 || m.Phase > 4 {
		return
	}
	// Phase 1-3 votes matter only for the present and future views; phase 4
	// tallies are kept for every view because a quorum of vote-4 anywhere
	// is a decision.
	if m.Phase != 4 && m.View < n.view {
		return
	}
	n.tallies.Add(bucket{m.Phase, m.View, m.Val}, from)
	if m.Phase == 4 {
		n.tryDecide(env, m.View, m.Val)
		return
	}
	if m.View == n.view {
		n.tryAdvance(env, m.Phase+1, m.Val)
	}
}

func (n *Node) onSuggest(env types.Env, from types.NodeID, m types.SuggestMsg) {
	if m.View < n.view || n.Leader(m.View) != n.cfg.ID {
		return // suggests are addressed to the leader of their view
	}
	perView := n.suggests[m.View]
	if perView == nil {
		perView = make(map[types.NodeID]types.SuggestMsg)
		n.suggests[m.View] = perView
	}
	if _, dup := perView[from]; dup {
		return
	}
	perView[from] = m
	if m.View == n.view {
		n.tryPropose(env)
	}
}

func (n *Node) onProof(env types.Env, from types.NodeID, m types.ProofMsg) {
	if m.View < n.view {
		return
	}
	perView := n.proofs[m.View]
	if perView == nil {
		perView = make(map[types.NodeID]types.ProofMsg)
		n.proofs[m.View] = perView
	}
	if _, dup := perView[from]; dup {
		return
	}
	perView[from] = m
	if m.View == n.view {
		n.tryVote1(env)
	}
}

func (n *Node) onViewChange(env types.Env, from types.NodeID, m types.ViewChange) {
	if m.View <= 0 {
		return
	}
	set := n.vcSets.Add(m.View, from)
	// Echo on a blocking set (f+1), unless we already called for this view
	// or a higher one (Section 3.2).
	if m.View > n.highestVC && n.qs.IsBlocking(n.cfg.ID, set) {
		n.sendViewChange(env, m.View)
	}
	// Enter the view on a quorum (n−f).
	if m.View > n.view && n.qs.IsQuorum(set) {
		n.enterView(env, m.View)
	}
}

// sendViewChange broadcasts ⟨view-change, v⟩ once per view, write-ahead
// persisting the highest-view-change watermark first.
func (n *Node) sendViewChange(env types.Env, v types.View) {
	if v <= n.highestVC {
		return
	}
	n.highestVC = v
	if !n.persist() {
		return
	}
	n.emit(env, "view-change", v, "")
	env.Broadcast(types.ViewChange{View: v})
}

// enterView transitions to view v (Section 3.2 step 1): start the 9Δ timer
// and, for v > 0, broadcast a proof and send a suggest to the new leader.
func (n *Node) enterView(env types.Env, v types.View) {
	n.view = v
	n.proposed = false
	n.sentVote = [5]bool{}
	// After a crash-restore into the same view, the persisted vote history
	// tells us which phases we already voted in; never vote twice.
	for phase, ref := range map[uint8]types.VoteRef{1: n.votes.Vote1, 2: n.votes.Vote2, 3: n.votes.Vote3, 4: n.votes.Vote4} {
		if ref.Valid && ref.View == v {
			n.sentVote[phase] = true
		}
	}
	n.prune(v)
	if !n.persist() {
		return
	}
	n.emit(env, "enter-view", v, "")
	env.SetTimer(types.TimerID(v), types.Duration(n.cfg.TimeoutFactor)*n.cfg.Delta)
	if v > 0 {
		env.Broadcast(n.votes.Proof(v))
		env.Send(n.Leader(v), n.votes.Suggest(v))
	}
	if n.Leader(v) == n.cfg.ID {
		n.tryPropose(env)
	}
	n.tryVote1(env)
	n.rescanTallies(env)
}

// tryPropose runs Rule 1: in view 0 the leader proposes its input; later it
// needs a quorum of suggests witnessing a safe value (Algorithm 4).
func (n *Node) tryPropose(env types.Env) {
	if n.proposed || n.Leader(n.view) != n.cfg.ID {
		return
	}
	var val types.Value
	if n.view == 0 {
		val = n.cfg.InitialValue
	} else {
		safe, ok := LeaderSafeValue(n.qs, n.cfg.ID, n.suggests[n.view], n.view, n.cfg.InitialValue)
		if !ok {
			return
		}
		val = safe
	}
	n.proposed = true
	n.emit(env, "propose", n.view, val)
	env.Broadcast(types.Proposal{View: n.view, Val: val})
}

// tryVote1 runs Rule 3 (Algorithm 5) against the current view's proposal.
func (n *Node) tryVote1(env types.Env) {
	if n.sentVote[1] {
		return
	}
	p, ok := n.proposals[n.view]
	if !ok {
		return
	}
	safe := n.view == 0 ||
		n.cfg.Mutation == MutationSkipRule3 ||
		ProposalSafe(n.qs, n.cfg.ID, n.proofs[n.view], n.view, p.Val)
	if !safe {
		return
	}
	n.doVote(env, 1, p.Val)
}

// tryAdvance sends vote-k for val if a quorum of vote-(k−1) for the current
// view and val has been gathered (Section 3.2 steps 4-6).
func (n *Node) tryAdvance(env types.Env, phase uint8, val types.Value) {
	if phase < 2 || phase > 4 || n.sentVote[phase] {
		return
	}
	if !n.qs.IsQuorum(n.tallies[bucket{phase - 1, n.view, val}]) {
		return
	}
	n.doVote(env, phase, val)
}

// rescanTallies retries every advancement and decision after a view entry,
// consuming votes that were buffered before the node reached this view.
// Iteration is sorted so runs stay deterministic.
func (n *Node) rescanTallies(env types.Env) {
	for phase := uint8(1); phase <= 3; phase++ {
		for _, b := range n.sortedBuckets(func(b bucket) bool { return b.phase == phase && b.view == n.view }) {
			n.tryAdvance(env, phase+1, b.val)
		}
	}
	for _, b := range n.sortedBuckets(func(b bucket) bool { return b.phase == 4 }) {
		n.tryDecide(env, b.view, b.val)
	}
}

// sortedBuckets returns the tallied buckets that keep selects, ordered by
// view and then by value.
func (n *Node) sortedBuckets(keep func(bucket) bool) []bucket {
	var out []bucket
	for b := range n.tallies {
		if keep(b) {
			out = append(out, b)
		}
	}
	slices.SortFunc(out, func(a, b bucket) int { return cmp.Or(cmp.Compare(a.view, b.view), cmp.Compare(a.val, b.val)) })
	return out
}

// doVote records the vote in the durable state (write-ahead), then
// broadcasts it and immediately attempts the next phase (the node's own
// vote may complete a quorum via self-delivery).
func (n *Node) doVote(env types.Env, phase uint8, val types.Value) {
	if n.sentVote[phase] {
		return
	}
	n.sentVote[phase] = true
	if n.cfg.Mutation == MutationNoPrevVote {
		n.recordWithoutPrev(phase, val)
	} else {
		n.votes.Record(phase, n.view, val)
	}
	if !n.persist() {
		return
	}
	n.emit(env, fmt.Sprintf("vote-%d", phase), n.view, val)
	env.Broadcast(types.VoteMsg{Phase: phase, View: n.view, Val: val})
}

func (n *Node) recordWithoutPrev(phase uint8, val types.Value) {
	ref := types.Vote(n.view, val)
	switch phase {
	case 1:
		n.votes.Vote1 = ref
	case 2:
		n.votes.Vote2 = ref
	case 3:
		n.votes.Vote3 = ref
	case 4:
		n.votes.Vote4 = ref
	}
}

// tryDecide decides val once a quorum of vote-4 for (v, val) is assembled
// (Section 3.2 step 7). Decisions are final; the node keeps participating
// so that slower peers can finish.
func (n *Node) tryDecide(env types.Env, v types.View, val types.Value) {
	if n.decided {
		return
	}
	if !n.qs.IsQuorum(n.tallies[bucket{4, v, val}]) {
		return
	}
	n.decided = true
	n.decision = val
	n.emit(env, "decide", v, val)
	env.Decide(0, val)
}

// prune discards transient state that can no longer matter once the node is
// in view v: phase 1-3 tallies, proposals, suggests and proofs below v, and
// view-change sets at or below v. Phase-4 tallies are kept (a quorum of
// vote-4 in any view is a decision).
func (n *Node) prune(v types.View) {
	for b := range n.tallies {
		if b.phase <= 3 && b.view < v {
			delete(n.tallies, b)
		}
	}
	for view := range n.proposals {
		if view < v {
			delete(n.proposals, view)
		}
	}
	for view := range n.suggests {
		if view < v {
			delete(n.suggests, view)
		}
	}
	for view := range n.proofs {
		if view < v {
			delete(n.proofs, view)
		}
	}
	for view := range n.vcSets {
		if view <= v {
			delete(n.vcSets, view)
		}
	}
}

// persist writes the durable state through the configured Persister. On
// failure the node halts: continuing without durability could violate
// safety after a crash. Returns false when halted.
func (n *Node) persist() bool {
	if n.cfg.Persist == nil {
		return true
	}
	if err := n.cfg.Persist.Persist(n.Snapshot()); err != nil {
		n.halted = true
		return false
	}
	return true
}

func (n *Node) emit(env types.Env, typ string, v types.View, val types.Value) {
	if n.cfg.Tracer == nil {
		return
	}
	n.cfg.Tracer.Emit(trace.Event{Time: env.Now(), Node: n.cfg.ID, Type: typ, View: v, Val: val})
}
