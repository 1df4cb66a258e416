// Package multishot implements Multi-shot TetraBFT (Section 6 of the
// paper): the pipelined, chained extension of single-shot TetraBFT that
// finalizes a blockchain.
//
// Blocks are indexed by slots. Each vote message ⟨vote, slot s, view v,
// block b⟩ plays four roles at once: vote-1 for slot s, vote-2 for slot
// s−1, vote-3 for s−2 and vote-4 for s−3, resolved along b's ancestor
// chain. A block is notarized on a quorum of votes; the first block of four
// consecutively notarized, parent-linked slots is finalized together with
// its entire prefix. In the good case the pipeline commits one block per
// message delay (Figure 2); leader failure aborts at most the five
// in-flight blocks and recovers through a per-slot view change with
// suggest/proof messages and Rules 1/3 (Figure 3, Algorithms 2-3).
//
// Storage layout: the per-slot consensus state lives in a fixed-size ring
// of slot records indexed by slot number modulo the window. Each slot keeps
// a small table of the blocks named there, whose entries the node walks
// once a message's block ID has been looked up. Vote tallies are dense
// bitsets over member indices, view records are found by linear scan, and
// finalized slots recycle their records through free lists — the
// steady-state deliver path allocates nothing.
package multishot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"slices"
	"strconv"

	"tetrabft/internal/core"
	"tetrabft/internal/obs"
	"tetrabft/internal/quorum"
	"tetrabft/internal/trace"
	"tetrabft/internal/types"
)

// Config parameterizes a multi-shot TetraBFT node.
type Config struct {
	// ID is this node's identity.
	ID types.NodeID
	// Quorum is the quorum system (nil = threshold over Nodes).
	Quorum quorum.System
	// Nodes is the membership size used when Quorum is nil.
	Nodes int
	// Delta is the post-GST delay bound Δ in ticks (default 10).
	Delta types.Duration
	// TimeoutFactor scales the per-slot view timeout (default 9 → 9Δ).
	TimeoutFactor int
	// Payload produces the block body this node proposes for a slot (nil: a
	// placeholder). Like Batch, it is never called for a slot above MaxSlot−3.
	Payload func(slot types.Slot) []byte
	// Batch produces the ordered transaction batch a proposal for the slot
	// carries (nil = headers only). Batching changes only what rides inside
	// a block, never the consensus rules: an empty batch keeps the block
	// byte-identical to an unbatched one. The source is called on the
	// node's event loop when the proposing turn releases its messages —
	// after that turn's durable write, with now read then — at most once
	// per fresh proposal and never for a re-proposed body; a turn whose
	// write fails calls it not at all (see turn.go).
	Batch func(slot types.Slot, now types.Time) [][]byte
	// Window is the pipeline depth: how many consecutive unnotarized
	// current-view proposals a leader may stack when extending the chain
	// (Section 6.1 requires the grandparent chain notarized beneath a new
	// proposal; Window relaxes that to a bounded run of optimistic
	// ancestors). It is a liveness/throughput knob only — voting rules are
	// untouched, so safety never depends on it. ≤1 (the default) reproduces
	// the paper's pipeline exactly.
	Window int
	// MaxSlot stops the pipeline: leaders do not propose beyond it
	// (0 = unbounded).
	MaxSlot types.Slot
	// Persist optionally stores durable state (nil = in-memory only).
	Persist Persister
	// Chain keeps the node's finalized prefix (nil: a chain of its own,
	// NewChain(MaxSlot)). Nodes that run on one goroutine, as a simulated
	// cluster's do, may share one: see Chain.
	Chain *Chain
	// Tracer optionally observes protocol events.
	Tracer trace.Tracer
	// Metrics optionally counts protocol activity (deliveries, proposals,
	// votes, notarizations, finalized slots, view changes). Nil — the
	// default — resolves no-op counters, keeping the steady-state deliver
	// path allocation-free (pinned by TestObsDisabledDeliverZeroAllocs).
	Metrics *obs.Registry
}

// blockRec is one entry of a slot's block table: a block some proposal,
// vote or finality claim named at the slot, maybe before its body arrived.
// parent is the entry of its parent at slot − 1, set once both are known
// (keepBody or entry links them, whichever comes second) and dropped when
// slot − 1 finalizes; it cannot go stale, as an ID hashes the whole block.
// The fields a vote reads share a cache line (see votesOf).
type blockRec struct {
	id        types.BlockID
	view0     types.View // the first view it got votes in, once voted
	words     [2]uint64  // its voters in view0, up to 128 members
	voted     bool
	notarized bool
	hasBody   bool

	votes   []viewVotes // its voters in other views
	notView types.View  // the view it first reached a quorum in
	parent  *blockRec
	value   types.Value // id's value string, made once (see valueOf)
	body    types.Block
}

// viewVotes holds the votes one block gathered in one view.
type viewVotes struct {
	view types.View
	bits quorum.Bits
}

// viewRec is the consensus state of one (slot, view): the flat replacement
// for the per-view inner maps. A slot sees view 0 plus at most a few
// recovery views, so records are found by linear scan; the first lives in
// the slot's record, and the others are dropped when the slot finalizes.
type viewRec struct {
	view     types.View
	proposed bool      // this node (as leader) proposed in this view
	sentVote bool      // this node voted in this view
	prop     *blockRec // the view's first proposal (nil = none yet)

	// suggests and proofs stay as lazily allocated maps: they are only
	// populated on the view-change path, and core.LeaderSafeValue /
	// core.ProposalSafe take them by map (nil is a valid empty history).
	suggests map[types.NodeID]types.SuggestMsg
	proofs   map[types.NodeID]types.ProofMsg

	vcVotes quorum.Bits // view-change senders, lazily sized to the membership
}

// slotState is the per-slot consensus state. Only the in-flight window is
// ever live; finalized slots move their block to the node's chain cache and
// return their record to the free list.
//
// blocks, the slot's block table, is kept sorted by ID bytes: chainHead,
// childNotarizedOf and someNotarized enumerate its notarized entries in
// that order, the fixed order the map-based implementation got from sorting
// its keys (with an equivocating leader several notarized blocks coexist at
// a slot and the picked one steers the run: TestBlockEquivocatingLeader).
// A good-case slot is one object: it holds its first entry and view record
// itself, and the fields a delivery reads come first.
type slotState struct {
	slot      types.Slot
	view      types.View
	cur       *viewRec // the record of view, once made
	blocks    []*blockRec
	tab       [2]*blockRec
	entry0    blockRec
	started   bool
	highestVC types.View
	deadline  types.Time // when this slot's 9Δ view timer expires (see Tick)
	views     []*viewRec
	rec0      viewRec
	votes     core.VoteState // implicit vote-1..4 history for this slot
}

// recIf returns the slot's record for view v, or nil.
func (st *slotState) recIf(v types.View) *viewRec {
	if st.cur != nil && st.cur.view == v {
		return st.cur
	}
	for _, vr := range st.views {
		if vr.view == v {
			return vr
		}
	}
	return nil
}

// lookup returns the slot's entry for id, or nil: once per message that
// names a block, and once per body, for its parent's entry.
func (st *slotState) lookup(id types.BlockID) *blockRec {
	if looked != nil {
		looked(id)
	}
	for _, b := range st.blocks {
		if sameID(&b.id, &id) {
			return b
		}
	}
	return nil
}

// sameID is a == b in four word compares: == on the arrays calls memequal.
func sameID(a, b *types.BlockID) bool {
	le := binary.LittleEndian
	return le.Uint64(a[:]) == le.Uint64(b[:]) && le.Uint64(a[8:]) == le.Uint64(b[8:]) &&
		le.Uint64(a[16:]) == le.Uint64(b[16:]) && le.Uint64(a[24:]) == le.Uint64(b[24:])
}

// looked, when set, is called by every lookup. It is nil outside tests.
var looked func(types.BlockID)

// Node is a multi-shot TetraBFT node; it implements types.Machine. The
// fields every delivery reads come first.
type Node struct {
	// out buffers the sends of the current turn in call order, and dirty
	// records that durable state changed since the last successful write;
	// endTurn writes once and then releases them (see turn.go). durable is
	// the length of the prefix of out that a write already covers: zero
	// between turns, and only ever consulted when an Env hands a released
	// broadcast straight back to Deliver. outBuf backs out for the usual
	// vote-plus-proposal turn, so a fresh node allocates nothing for it. late
	// lists the fresh proposals among out whose bodies the release still has
	// to draw (see turn.go); a turn rarely decides on more than one, which
	// lateBuf holds.
	out     []outMsg
	durable int
	dirty   bool
	// halted is set when a Persist fails: a node that cannot write ahead
	// must stop participating (see core.Persister).
	halted bool
	// restored marks a node rebuilt by Restore: Start rejoins instead of
	// beginning slot 1.
	restored bool
	// thrQuorum/thrBlocking cache the threshold cardinalities so the hot
	// path answers quorum questions with a popcount; isThr is false for
	// heterogeneous systems (Slices), which fall back to materialized Sets.
	isThr       bool
	thrQuorum   int
	thrBlocking int
	words       int // a vote bitset's length in words

	finalized types.Slot // highest finalized slot
	maxSlot   types.Slot // highest started slot
	// notarizedTop is the highest slot ever notarized (see chainStart).
	notarizedTop types.Slot
	// memberIdx maps identities to dense indices for the bitset tallies.
	// Deliver drops non-members (forged senders) before any handler runs,
	// so they neither move a tally nor leave an entry behind.
	memberIdx memberIndex

	// Pre-resolved metric instruments (nil and free when Config.Metrics
	// is nil).
	mDeliver     *obs.Counter
	mProposals   *obs.Counter
	mVotes       *obs.Counter
	mNotarized   *obs.Counter
	mFinalized   *obs.Counter
	mViewChanges *obs.Counter

	cfg     Config
	qs      quorum.System
	members []types.NodeID
	window  types.Slot // pipeline depth, ≥1

	// ring holds the in-flight slot records, indexed by slot % len(ring).
	// Live slots span at most the catch-up window, which is smaller than
	// the ring, so two live slots never collide; each record carries its
	// slot number to disambiguate stale cells. extra spills records that
	// Restore places beyond the window (a crashed node's persisted slots
	// can sit far above its reset finalized watermark).
	ring  [slotRingLen]*slotState
	extra map[types.Slot]*slotState

	// chain holds the finalized prefix, which FinalizedChain returns without
	// copying and stragglers are served from: finalized slots keep no bodies.
	chain *Chain

	// claims tracks MSFinal finality claims per slot: last claimed block
	// per sender. f+1 matching claims let a straggler adopt a finalized
	// block it missed (see onFinal).
	claims map[types.Slot]map[types.NodeID]types.BlockID

	// wakeAt is when the node's one pending Env timer fires (0 = none
	// pending); restartDeadline says why one timer serves every slot.
	wakeAt types.Time

	// freeSlots recycles finalized slots' records so the pipeline reaches a
	// steady state with no per-slot allocation.
	freeSlots []*slotState

	outBuf  [4]outMsg
	late    []lateProposal
	lateBuf [1]lateProposal
	// persistSlots is the scratch the per-turn write fills in place of a
	// fresh Slots slice (Snapshot keeps returning an independent copy).
	persistSlots []SlotPersist
	// path is finalizePrefix's scratch for the ancestry it walks; it is
	// cleared after every call, so it pins no block entry.
	path []*blockRec
}

// catchupWindow bounds how far ahead of the local finalized head messages
// are buffered (spam bound; catch-up is sequential anyway and the claim
// protocol retries on every view-change retransmission).
const catchupWindow = 64

// liveWindow is how far above the finalized head a slot may live in the
// ring: a proposal at the accept window's edge still starts the next slot
// and probes the pipeline leader two ahead. The ring is a power of two
// longer, so a slot's cell is a mask, not a division.
const liveWindow, slotRingLen = catchupWindow + 4, 128

const chainReserve = 4096 // the most blocks NewChain reserves

// A Chain is a finalized prefix, the block and ID of slot i+1 at index i.
// Nodes that share one keep one copy of the blocks they agree on: the first
// to finalize a slot appends it, a later one only checks its ID, and each
// reads the prefix up to its own finalized slot. A node that finalizes a
// different block goes on with a private copy of the prefix below it.
type Chain struct {
	blocks []types.Block
	ids    []types.BlockID
}

// NewChain reserves a chain for nodes capped at maxSlot (0 = uncapped):
// min(maxSlot, chainReserve) blocks. chainReserve covers a 2,100-slot
// simulator run, so that chain never re-copies its prefix, while a far-off
// cap reserves at most ~0.5 MB (120 B a slot).
func NewChain(maxSlot types.Slot) *Chain {
	r := min(max(maxSlot, 0), chainReserve)
	return &Chain{make([]types.Block, 0, r), make([]types.BlockID, 0, r)}
}

var _ types.Machine = (*Node)(nil)

// NewNode builds a multi-shot node.
func NewNode(cfg Config) (*Node, error) {
	if cfg.Quorum == nil {
		if cfg.Nodes <= 0 {
			return nil, errors.New("multishot: config needs either Quorum or Nodes")
		}
		t, err := quorum.NewThreshold(cfg.Nodes)
		if err != nil {
			return nil, fmt.Errorf("multishot: %w", err)
		}
		cfg.Quorum = t
	}
	if cfg.Delta <= 0 {
		cfg.Delta = 10
	}
	if cfg.TimeoutFactor <= 0 {
		cfg.TimeoutFactor = core.DefaultTimeoutFactor
	}
	members := cfg.Quorum.Members()
	idx := newMemberIndex(members)
	if _, ok := idx.of(cfg.ID); !ok {
		return nil, fmt.Errorf("multishot: node %d is not a member of the quorum system", cfg.ID)
	}
	n := &Node{
		cfg:       cfg,
		qs:        cfg.Quorum,
		members:   members,
		memberIdx: idx,
		window:    max(types.Slot(cfg.Window), 1),
		claims:    make(map[types.Slot]map[types.NodeID]types.BlockID),
	}
	if n.chain = cfg.Chain; n.chain == nil {
		n.chain = NewChain(cfg.MaxSlot)
	}
	n.words = (len(members) + 63) / 64
	n.out = n.outBuf[:0]
	n.late = n.lateBuf[:0]
	if t, ok := cfg.Quorum.(quorum.Threshold); ok {
		n.isThr = true
		n.thrQuorum = t.QuorumSize()
		n.thrBlocking = t.BlockingSize()
	}
	n.mDeliver = cfg.Metrics.Counter("multishot_deliveries_total")
	n.mProposals = cfg.Metrics.Counter("multishot_proposals_total")
	n.mVotes = cfg.Metrics.Counter("multishot_votes_total")
	n.mNotarized = cfg.Metrics.Counter("multishot_notarizations_total")
	n.mFinalized = cfg.Metrics.Counter("multishot_finalized_slots_total")
	n.mViewChanges = cfg.Metrics.Counter("multishot_view_changes_total")
	return n, nil
}

// ID implements types.Machine.
func (n *Node) ID() types.NodeID { return n.cfg.ID }

// Leader returns the leader of (slot, view): round-robin over both.
func (n *Node) Leader(slot types.Slot, view types.View) types.NodeID {
	idx := (int64(slot) + int64(view)) % int64(len(n.members))
	return n.members[idx]
}

// FinalizedSlot returns the highest finalized slot.
func (n *Node) FinalizedSlot() types.Slot { return n.finalized }

// finalHead is the finalized block at FinalizedSlot, the one the next slot
// to finalize must extend (ZeroBlockID, genesis's parent, before any).
func (n *Node) finalHead() types.BlockID {
	if n.finalized < 1 {
		return types.ZeroBlockID
	}
	return n.chain.ids[n.finalized-1]
}

// FinalizedChain returns the finalized blocks in slot order: the node's
// Chain up to its finalized slot, which callers must treat as read-only.
// It is clipped to its length, so an append copies.
func (n *Node) FinalizedChain() []types.Block { return n.chain.blocks[:n.finalized:n.finalized] }

// commit makes b, whose ID is id, the node's finalized block at slot s, one
// above its finalized head (see Chain).
func (n *Node) commit(s types.Slot, b *types.Block, id types.BlockID) {
	if c := n.chain; types.Slot(len(c.ids)) < s {
		c.blocks, c.ids = append(c.blocks, *b), append(c.ids, id)
	} else if !sameID(&c.ids[s-1], &id) {
		n.chain = &Chain{append(slices.Clip(c.blocks[:s-1]), *b), append(slices.Clip(c.ids[:s-1]), id)}
	}
	n.finalized = s
}

// ViewOf returns the node's current view for a slot (0 for slots it holds
// no live state for).
func (n *Node) ViewOf(slot types.Slot) types.View {
	if st := n.peekSlot(slot); st != nil {
		return st.view
	}
	return 0
}

// bitsQuorum answers "is this tally a quorum" with a popcount for the
// threshold system, falling back to a materialized Set for heterogeneous
// quorum systems.
func (n *Node) bitsQuorum(b quorum.Bits) bool {
	if n.isThr {
		return b.Count() >= n.thrQuorum
	}
	return n.qs.IsQuorum(b.Set(n.members))
}

// bitsBlocking is the blocking-set analogue of bitsQuorum.
func (n *Node) bitsBlocking(b quorum.Bits) bool {
	if n.isThr {
		return b.Count() >= n.thrBlocking
	}
	return n.qs.IsBlocking(n.cfg.ID, b.Set(n.members))
}

// Start implements types.Machine: slot 1 begins at time zero. A restored
// node instead rejoins: it restarts the deadlines of its recovered in-flight
// slots and immediately calls for a view change on the lowest unfinalized
// slot, which doubles as the catch-up request — peers that already
// finalized that slot answer with finality claims (onViewChange), and the
// f+1-claim adoption loop (onFinal) walks the recovered node back up to the
// live pipeline, one catch-up window per view timeout.
func (n *Node) Start(env types.Env) {
	if n.halted {
		return
	}
	if n.restored {
		for st := range n.inFlight {
			n.emit(env, "rejoin-slot", st.slot, st.view)
			n.restartDeadline(env, st)
		}
		// The finalized prefix was not persisted; slot 1 (or whatever is
		// lowest) must be re-fetched from peers before anything above it
		// can anchor.
		n.startSlot(env, n.finalized+1)
		n.callForViewChange(env)
	} else {
		n.startSlot(env, 1)
		n.tryPropose(env, 1)
	}
	n.endTurn(env)
}

// Deliver implements types.Machine.
func (n *Node) Deliver(env types.Env, from types.NodeID, msg types.Message) {
	if n.halted {
		return
	}
	n.mDeliver.Inc()
	idx, member := n.memberIdx.of(from)
	if !member {
		return // a forged identity moves nothing and leaves no state behind
	}
	switch m := msg.(type) {
	case types.MSVote: // most messages are votes
		n.onVote(env, idx, m)
	case types.MSPropose:
		n.onPropose(env, from, &m)
	case types.MSViewChange:
		n.onViewChange(env, from, idx, m)
	case types.MSSuggest:
		n.onSuggest(env, from, m)
	case types.MSProof:
		n.onProof(env, from, m)
	case types.MSFinal:
		n.onFinal(env, from, m)
	default:
		// Foreign message kinds are ignored.
	}
	n.endTurn(env)
}

// freshBlock assembles a new proposal body from the sources at env.Now(),
// drawing nothing into a bounded run's tail slots: they never finalize (Tick).
func (n *Node) freshBlock(env types.Env, s types.Slot, parent types.BlockID) types.Block {
	b, draw := types.Block{Slot: s, Parent: parent}, n.cfg.MaxSlot == 0 || s <= n.cfg.MaxSlot-3
	switch {
	case n.cfg.Payload == nil:
		b.Payload = []byte("payload-" + strconv.FormatInt(int64(s), 10) + "-by-" + strconv.Itoa(int(n.cfg.ID)))
	case draw:
		b.Payload = n.cfg.Payload(s)
	}
	if n.cfg.Batch != nil && draw {
		b.Txs = n.cfg.Batch(s, env.Now())
	}
	return b
}

// Tick implements types.Machine: the node's one wakeup fired. Each in-flight
// slot whose deadline passed is an expired view timer: call for the next view
// on the lowest aborted slot (Algorithm 3 lines 6-8) and restart its deadline
// for retransmission. Then arm once, for the earliest deadline: deadlines only
// grow, so that one wakeup comes in time for every slot. A fire before wakeAt
// (a restored node can receive its predecessor's timers) changes nothing.
func (n *Node) Tick(env types.Env, _ types.TimerID) {
	now := env.Now()
	if n.halted || n.wakeAt == 0 || now < n.wakeAt {
		return
	}
	if n.cfg.MaxSlot > 0 && n.finalized >= n.cfg.MaxSlot-3 {
		n.wakeAt = 0
		return // bounded run complete: the tail slots can never finalize
	}
	var next types.Time
	for st := range n.inFlight {
		if st.deadline <= now {
			n.callForViewChange(env)
			n.restartDeadline(env, st) // arms nothing: wakeAt is still set
		}
		if next == 0 || st.deadline < next {
			next = st.deadline
		}
	}
	n.wakeAt = next
	if next > 0 {
		env.SetTimer(1, types.Duration(next-now))
	}
	n.endTurn(env)
}

// callForViewChange calls for the next view on the lowest aborted slot
// (Algorithm 3 lines 6-8), or retransmits the pending call. Shared by the
// timer path and a restored node's rejoin.
func (n *Node) callForViewChange(env types.Env) {
	for ls := range n.inFlight { // the lowest aborted slot, if any
		if want := ls.view + 1; want > ls.highestVC {
			ls.highestVC, n.dirty = want, true
			n.mViewChanges.Inc()
			n.emit(env, "view-change", ls.slot, want)
		} // else the call is pending: retransmit it (it may have been lost pre-GST)
		n.broadcast(types.MSViewChange{Slot: ls.slot, View: ls.highestVC})
		return
	}
}

// inFlight yields the started, unfinalized slots in slot order.
func (n *Node) inFlight(yield func(*slotState) bool) {
	for s := n.finalized + 1; s <= n.maxSlot; s++ {
		if st := n.peekSlot(s); st != nil && st.started && !yield(st) {
			return
		}
	}
}

func (n *Node) onPropose(env types.Env, from types.NodeID, m *types.MSPropose) {
	s := m.Block.Slot
	if s <= n.finalized || s > n.finalized+catchupWindow || (n.cfg.MaxSlot > 0 && s > n.cfg.MaxSlot) || from != n.Leader(s, m.View) {
		return
	}
	st := n.slot(s)
	if m.View < st.view {
		return
	}
	vr := n.rec(st, m.View)
	if vr.prop != nil {
		return // first proposal per (slot, view) wins
	}
	id, val := m.BlockValue()
	vr.prop = n.keepBody(id, val, &m.Block)
	// Receiving the proposal for slot s starts slot s+1 (Section 6.2).
	n.startSlot(env, s)
	n.startSlot(env, s+1)
	n.tryVote(env, st)
	// The pipeline leader of s+1 proposes on top of this block.
	n.tryPropose(env, s+1)
}

// onVote counts a vote from the member at position idx.
func (n *Node) onVote(env types.Env, idx int, m types.MSVote) {
	if m.Slot < 1 || m.Slot <= n.finalized || m.Slot > n.finalized+catchupWindow {
		return
	}
	b := n.entry(n.slot(m.Slot), m.Block)
	set := n.votesOf(b, m.View)
	set.Add(idx)
	if !b.notarized && n.bitsQuorum(set) {
		b.notarized, b.notView = true, m.View
		n.notarizedTop = max(n.notarizedTop, m.Slot)
		n.mNotarized.Inc()
		n.emitB(env, "notarize", m.Slot, m.View, m.Block)
		if child := n.peekSlot(m.Slot + 1); child != nil {
			n.tryVote(env, child) // its parent condition may now hold
		}
		n.tryPropose(env, m.Slot+2) // pipeline leader two ahead may be unblocked
		n.tryFinalize(env)
	}
}

// onViewChange handles a view-change call from member from, at position idx.
func (n *Node) onViewChange(env types.Env, from types.NodeID, idx int, m types.MSViewChange) {
	if m.Slot < 1 || m.View <= 0 {
		return
	}
	// A view-change for a slot we already finalized means the sender is a
	// straggler: answer with finality claims so it can catch up.
	if m.Slot <= n.finalized {
		for s := m.Slot; s <= min(m.Slot+3, n.finalized); s++ {
			n.send(from, types.MSFinal{Block: n.chain.blocks[s-1]})
		}
		return
	}
	if m.Slot > n.finalized+catchupWindow {
		return
	}
	st := n.slot(m.Slot)
	vr := n.rec(st, m.View)
	if vr.vcVotes == nil {
		vr.vcVotes = quorum.NewBits(len(n.members))
	}
	vr.vcVotes.Add(idx)
	// Echo on f+1 unless already sent for this slot at this view or higher.
	if m.View > st.highestVC && n.bitsBlocking(vr.vcVotes) {
		st.highestVC = m.View
		n.dirty = true
		n.broadcast(types.MSViewChange{Slot: m.Slot, View: m.View})
	}
	// Apply on n−f.
	if m.View > st.view && n.bitsQuorum(vr.vcVotes) {
		n.applyViewChange(env, m.Slot, m.View)
	}
}

// applyViewChange moves every unfinalized slot in [s, maxSlot] to view v,
// restarts their deadlines, and broadcasts per-slot proof/suggest histories
// (Algorithm 2 lines 7-11). Slots never started stay in view 0. However many
// slots move, the turn writes them in one snapshot before any history leaves.
func (n *Node) applyViewChange(env types.Env, s types.Slot, v types.View) {
	// Two passes keep the event order: every slot enters the view and restarts
	// its deadline before the first history (or re-proposal) is issued.
	var moved []*slotState
	for k := s; k <= n.maxSlot; k++ {
		st := n.peekSlot(k)
		if st == nil || !st.started || st.view >= v {
			continue
		}
		st.view, st.cur = v, st.recIf(v)
		n.dirty = true
		n.emit(env, "enter-view", k, v)
		n.restartDeadline(env, st)
		moved = append(moved, st)
	}
	for _, st := range moved {
		h := &st.votes
		n.broadcast(types.MSProof{Slot: st.slot, View: v, Vote1: h.Vote1, PrevVote1: h.PrevVote1, Vote4: h.Vote4})
		n.send(n.Leader(st.slot, v), types.MSSuggest{Slot: st.slot, View: v, Vote2: h.Vote2, PrevVote2: h.PrevVote2, Vote3: h.Vote3})
		if n.Leader(st.slot, v) == n.cfg.ID {
			n.tryPropose(env, st.slot)
		}
	}
}

func (n *Node) onSuggest(env types.Env, from types.NodeID, m types.MSSuggest) {
	if m.Slot < 1 || m.Slot <= n.finalized || m.Slot > n.finalized+catchupWindow {
		return
	}
	st := n.slot(m.Slot)
	if m.View < st.view || n.Leader(m.Slot, m.View) != n.cfg.ID {
		return
	}
	vr := n.rec(st, m.View)
	if vr.suggests == nil {
		vr.suggests = make(map[types.NodeID]types.SuggestMsg)
	}
	if _, dup := vr.suggests[from]; dup {
		return
	}
	vr.suggests[from] = types.SuggestMsg{View: m.View, Vote2: m.Vote2, PrevVote2: m.PrevVote2, Vote3: m.Vote3}
	n.tryPropose(env, m.Slot)
}

func (n *Node) onProof(env types.Env, from types.NodeID, m types.MSProof) {
	if m.Slot < 1 || m.Slot <= n.finalized || m.Slot > n.finalized+catchupWindow {
		return
	}
	st := n.slot(m.Slot)
	if m.View < st.view {
		return
	}
	vr := n.rec(st, m.View)
	if vr.proofs == nil {
		vr.proofs = make(map[types.NodeID]types.ProofMsg)
	}
	if _, dup := vr.proofs[from]; dup {
		return
	}
	vr.proofs[from] = types.ProofMsg{View: m.View, Vote1: m.Vote1, PrevVote1: m.PrevVote1, Vote4: m.Vote4}
	n.tryVote(env, st)
}

// onFinal processes a finality claim. Claims are buffered per (slot,
// sender); once f+1 distinct senders claim the same block for the next
// unfinalized slot, at least one of them is honest and the block is
// genuinely final — adopt it and advance.
func (n *Node) onFinal(env types.Env, from types.NodeID, m types.MSFinal) {
	s := m.Block.Slot
	if s <= n.finalized || s > n.finalized+catchupWindow {
		return
	}
	byNode := n.claims[s]
	if byNode == nil {
		byNode = make(map[types.NodeID]types.BlockID)
		n.claims[s] = byNode
	}
	id := m.Block.ID()
	byNode[from] = id
	n.keepBody(id, "", &m.Block)
	// Adopt sequentially from the finalized head.
	before := n.finalized
	for {
		next := n.finalized + 1
		candidate, ok := n.blockingClaim(next)
		if !ok {
			break
		}
		var b *blockRec
		if st := n.peekSlot(next); st != nil {
			b = st.lookup(candidate)
		}
		if b == nil || !b.hasBody || b.body.Parent != n.finalHead() {
			break
		}
		n.emitB(env, "adopt-final", next, n.ViewOf(next), candidate)
		n.commit(next, &b.body, candidate)
		env.Decide(next, candidate.Value())
		n.releaseSlot(next)
	}
	if n.finalized > before {
		n.dirty = true
		// Keep the recovery loop alive: the next unfinalized slot needs a
		// running timer to request the following catch-up window (or to
		// rejoin the live pipeline).
		n.startSlot(env, n.finalized+1)
		n.tryPropose(env, n.finalized+1)
	}
}

// blockingClaim returns a block claimed final for slot s by a blocking set
// (f+1 senders), if any.
func (n *Node) blockingClaim(s types.Slot) (types.BlockID, bool) {
	counts := make(quorum.Tally[types.BlockID])
	for sender, id := range n.claims[s] {
		counts.Add(id, sender)
	}
	// Go randomizes map iteration; trying the candidates in ID byte order
	// keeps same-seed runs identical.
	for _, id := range slices.SortedFunc(maps.Keys(counts), compareIDs) {
		if n.qs.IsBlocking(n.cfg.ID, counts[id]) {
			return id, true
		}
	}
	return types.ZeroBlockID, false
}

// startSlot begins slot s: it becomes in-flight with a fresh 9Δ deadline.
func (n *Node) startSlot(env types.Env, s types.Slot) {
	if !n.inWindow(s) || (n.cfg.MaxSlot > 0 && s > n.cfg.MaxSlot) {
		return
	}
	st := n.slot(s)
	if st.started {
		return
	}
	st.started = true
	n.maxSlot = max(n.maxSlot, s)
	n.emit(env, "start-slot", s, st.view)
	n.restartDeadline(env, st)
}

// restartDeadline sets st's view timer to expire 9Δ from now. It arms the
// node's one Env timer only when none is pending: every deadline is set to
// now + 9Δ, so they only grow, and a pending wakeup, armed at most 9Δ ago
// for the earliest deadline then, fires no later than this one. The timer's
// id is unused: Tick goes by wakeAt and the deadlines.
func (n *Node) restartDeadline(env types.Env, st *slotState) {
	timeout := types.Duration(n.cfg.TimeoutFactor) * n.cfg.Delta
	st.deadline = env.Now() + types.Time(timeout)
	if n.wakeAt == 0 {
		n.wakeAt = st.deadline
		env.SetTimer(1, timeout)
	}
}

// tryPropose proposes a block for slot s if this node leads (s, view) and
// the pipeline/view-change preconditions hold. Every decision is taken here;
// only the body of a fresh block is left to the turn's release (turn.go).
func (n *Node) tryPropose(env types.Env, s types.Slot) {
	if !n.inWindow(s) || (n.cfg.MaxSlot > 0 && s > n.cfg.MaxSlot) {
		return
	}
	st := n.slot(s)
	v := st.view
	if n.Leader(s, v) != n.cfg.ID {
		return
	}
	vr := n.rec(st, v)
	if vr.proposed {
		return
	}
	parent, ok := n.parentFor(s)
	if !ok {
		return
	}
	fresh := v == 0
	var block types.Block
	if !fresh {
		// Rule 1 over the per-slot suggest histories (Algorithm 4).
		val, safe := core.LeaderSafeValue(n.qs, n.cfg.ID, vr.suggests, v, types.Value("*any*"))
		if !safe {
			return
		}
		if val == "*any*" {
			fresh = true
		} else {
			id, idOK := types.BlockIDFromValue(val)
			if !idOK {
				return // a forged suggest smuggled a non-block value; wait for honest quorum
			}
			b := st.lookup(id)
			if b == nil || !b.hasBody {
				return // cannot re-propose a block whose body we never saw
			}
			block = b.body
		}
	}
	vr.proposed = true
	n.mProposals.Inc()
	if fresh {
		n.proposeFresh(s, v, parent) // assembled when the turn releases it
		return
	}
	// A re-proposed body is known already, and kept: nothing to bind late.
	msg := types.NewMSPropose(v, block)
	n.emitB(env, "propose", s, v, msg.BlockID())
	n.broadcast(msg)
}

// parentFor returns the parent block ID a slot-s proposal must extend, and
// whether it is known yet. In the good case the parent is the previous
// slot's (possibly still unnotarized) proposal — that is the pipelining; the
// grandparent chain must be notarized within the configured window beneath
// it (Section 6.1 with Window=1).
func (n *Node) parentFor(s types.Slot) (types.BlockID, bool) {
	if s == 1 {
		return types.ZeroBlockID, true
	}
	if s-1 <= n.finalized {
		return n.chain.ids[s-2], true
	}
	prev := n.peekSlot(s - 1)
	if prev == nil {
		return types.ZeroBlockID, false
	}
	// Prefer the previous slot's proposal in its current view, provided the
	// ancestor chain is notarized within the pipeline window beneath it.
	if vr := prev.cur; vr != nil && vr.prop != nil && n.pipelineAnchored(vr.prop, n.window-1) {
		return vr.prop.id, true
	}
	// Otherwise any notarized block at s−1 can anchor a new proposal
	// (view-change recovery path).
	if b := someNotarized(prev); b != nil {
		return b.id, true
	}
	return types.ZeroBlockID, false
}

// pipelineAnchored checks the pipeline precondition for building on b, a
// proposal: its ancestor chain reaches a notarized (or finalized) block
// within budget optimistic hops, where each hop may ride an unnotarized
// current-view proposal. budget 0 is exactly the paper's rule — b's direct
// parent must be notarized.
func (n *Node) pipelineAnchored(b *blockRec, budget types.Slot) bool {
	for {
		s := b.body.Slot
		if s <= 1 {
			return b.body.Parent == types.ZeroBlockID
		}
		if s-1 <= n.finalized {
			return n.chain.ids[s-2] == b.body.Parent
		}
		p := b.parent // a notarized parent, or the proposal a hop rides, has an entry
		if p == nil || p.notarized || budget <= 0 {
			return p != nil && p.notarized
		}
		if vr := n.peekSlot(s - 1).cur; vr == nil || vr.prop != p {
			return false
		}
		budget--
		b = p
	}
}

// compareIDs orders block IDs by their bytes.
func compareIDs(a, b types.BlockID) int { return bytes.Compare(a[:], b[:]) }

// someNotarized returns a deterministic notarized block at the slot, if
// any: the first in ID byte order among those notarized in the highest view
// (latest recovery).
func someNotarized(st *slotState) *blockRec {
	var best *blockRec
	for _, b := range st.blocks {
		if b.notarized && (best == nil || b.notView > best.notView) {
			best = b
		}
	}
	return best
}

// tryVote broadcasts this node's vote for st's current proposal once the
// Section 6.1 conditions hold: the parent is notarized, the block extends
// it, and (past view 0) Rule 3 accepts the value.
func (n *Node) tryVote(env types.Env, st *slotState) {
	v := st.view
	vr := st.cur
	if vr == nil || vr.sentVote || vr.prop == nil {
		return
	}
	// The durable vote history survives crashes where sentVote does not: a
	// restored node that voted at this view pre-crash must never vote again
	// in it, even for the same block (an equivocating leader could otherwise
	// extract two conflicting votes across the restart; Section 3.1).
	if st.votes.Vote1.Valid && st.votes.Vote1.View >= v {
		return
	}
	if !n.pipelineAnchored(vr.prop, 0) {
		return
	}
	if v > 0 && !core.ProposalSafe(n.qs, n.cfg.ID, vr.proofs, v, valueOf(vr.prop)) {
		return
	}
	vr.sentVote = true
	n.recordImplicitVotes(st, v, vr.prop)
	n.dirty = true
	n.mVotes.Inc()
	n.emitB(env, "vote", st.slot, v, vr.prop.id)
	n.broadcast(types.MSVote{Slot: st.slot, View: v, Block: vr.prop.id})
}

// recordImplicitVotes updates the per-slot vote histories for the four
// phases a single multi-shot vote for b at slot st represents (Section 6.3:
// "every vote serves multiple purposes"), along b's parent handles. Phases
// landing on already-finalized slots are skipped: their state is recycled
// and never persisted or consulted again.
func (n *Node) recordImplicitVotes(st *slotState, v types.View, b *blockRec) {
	st.votes.Record(1, v, valueOf(b))
	for phase := uint8(2); phase <= 4; phase++ {
		prevSlot := st.slot - types.Slot(phase) + 1
		if prevSlot < 1 || prevSlot <= n.finalized {
			return
		}
		if b = b.parent; b == nil || !b.hasBody {
			return // cannot attribute deeper phases without the body
		}
		n.peekSlot(prevSlot).votes.Record(phase, v, valueOf(b))
	}
}

// valueOf returns b's consensus value: the string its proposal brought (a
// sealed proposal's is its leader's, shared by every replica), or else the
// ID converted once per entry and not once per vote phase.
func valueOf(b *blockRec) types.Value {
	if b.value == "" {
		b.value = b.id.Value()
	}
	return b.value
}

// entry returns the slot's entry for id, adding an ID-only one in ID order
// if there is none. A new entry is the parent of the bodies at slot + 1
// that name it.
func (n *Node) entry(st *slotState, id types.BlockID) *blockRec {
	if b := st.lookup(id); b != nil {
		return b
	}
	b := &st.entry0
	if len(st.blocks) > 0 {
		b = new(blockRec)
	}
	b.id = id
	i, _ := slices.BinarySearchFunc(st.blocks, id, func(e *blockRec, id types.BlockID) int { return compareIDs(e.id, id) })
	st.blocks = slices.Insert(st.blocks, i, b)
	if next := n.peekSlot(st.slot + 1); next != nil {
		for _, c := range next.blocks {
			if c.hasBody && c.parent == nil && c.body.Parent == id {
				c.parent = b
			}
		}
	}
	return b
}

// keepBody gives the entry for id at body's slot that body, once, and the
// value string the caller has for it (a proposal's; "" = none), and links
// the entry to its parent's at slot − 1 if that is known. A finalized slot
// keeps nothing (nil): no lookup reads below the finalized head.
func (n *Node) keepBody(id types.BlockID, val types.Value, body *types.Block) *blockRec {
	if body.Slot <= n.finalized {
		return nil
	}
	b := n.entry(n.slot(body.Slot), id)
	if b.value == "" {
		b.value = val
	}
	if !b.hasBody {
		b.body, b.hasBody = *body, true
		if prev := n.peekSlot(body.Slot - 1); prev != nil {
			b.parent = prev.lookup(body.Parent)
		}
	}
	return b
}

// tryFinalize finalizes the longest provable prefix: the first block of any
// four consecutively notarized, parent-linked slots is final together with
// its ancestors (Section 6.1).
func (n *Node) tryFinalize(env types.Env) {
	for {
		k, head := n.chainStart()
		if head == nil || !n.finalizePrefix(env, k, head) {
			return
		}
	}
}

// chainStart finds the highest slot k > finalized that starts a notarized
// 4-chain, and the entry starting it. Only slots up to notarizedTop−3 can:
// the chain's last block is notarized at k+3.
func (n *Node) chainStart() (types.Slot, *blockRec) {
	for k := min(n.maxSlot, n.notarizedTop-3); k > n.finalized; k-- {
		if head := n.chainHead(k); head != nil {
			return k, head
		}
	}
	return 0, nil
}

// chainHead returns the entry starting a notarized, parent-linked 4-chain
// at slots k..k+3, or nil.
func (n *Node) chainHead(k types.Slot) *blockRec {
	if st := n.peekSlot(k); st != nil {
		for _, head := range st.blocks {
			cur := head
			for step := types.Slot(1); step <= 3 && cur != nil && head.notarized; step++ {
				cur = n.childNotarizedOf(k+step, cur)
			}
			if cur != nil && head.notarized {
				return head
			}
		}
	}
	return nil
}

// childNotarizedOf finds a notarized entry at slot s whose parent is p.
func (n *Node) childNotarizedOf(s types.Slot, p *blockRec) *blockRec {
	if st := n.peekSlot(s); st != nil {
		for _, b := range st.blocks {
			if b.notarized && b.parent == p {
				return b
			}
		}
	}
	return nil
}

// finalizePrefix finalizes entry head at slot k and its entire ancestry back
// to the current finalized head, emitting one decision per slot. Returns
// false if ancestor bodies are missing (retry later).
func (n *Node) finalizePrefix(env types.Env, k types.Slot, head *blockRec) bool {
	// Walk ancestors down to the finalized boundary: the commit loop below
	// recycles each slot's entries as it goes, lowest first.
	path := n.path[:0]
	for s, cur := k, head; ; s, cur = s-1, cur.parent {
		// The anchor must be the previous final block (or genesis).
		if cur == nil || !cur.hasBody || (s == n.finalized+1 && cur.body.Parent != n.finalHead()) {
			clear(path)
			n.path = path
			return false
		}
		if path = append(path, cur); s == n.finalized+1 {
			break
		}
	}
	// Commit from lowest slot upward.
	for i := len(path) - 1; i >= 0; i-- {
		s, b := k-types.Slot(i), path[i]
		view := n.ViewOf(s)
		n.commit(s, &b.body, b.id)
		n.mFinalized.Inc()
		n.emitB(env, "finalize", s, view, b.id)
		env.Decide(s, valueOf(b))
		n.releaseSlot(s)
	}
	clear(path)
	n.path = path[:0]
	// The advanced watermark shrinks the persisted window; no message
	// depends on it, so it rides on the next turn that has something to send.
	n.dirty = true
	return true
}

// releaseSlot retires a just-finalized slot: its claims and the bodies it
// holds go (the finalized body now lives in the chain cache) and its record
// returns to the free list, keeping the node's live footprint bounded by the
// in-flight window — the multi-shot analogue of the constant-storage
// property.
func (n *Node) releaseSlot(s types.Slot) {
	delete(n.claims, s)
	i := uint64(s) % slotRingLen
	st := n.ring[i]
	if st != nil && st.slot == s {
		n.ring[i] = nil
	} else if st = n.extra[s]; st != nil {
		delete(n.extra, s)
	} else {
		return
	}
	// Nothing reads below the finalized head: the entries above lose their
	// parents, and the slot's bodies, the finalized one now in the chain, are
	// let go. slot resets the rest when it reuses the record.
	if next := n.peekSlot(s + 1); next != nil {
		for _, b := range next.blocks {
			b.parent = nil
		}
	}
	for _, b := range st.blocks {
		b.body.Payload, b.body.Txs = nil, nil
	}
	n.freeSlots = append(n.freeSlots, st)
}

// inWindow reports whether slot s may hold live state in the ring.
func (n *Node) inWindow(s types.Slot) bool {
	return s > n.finalized && s <= n.finalized+liveWindow
}

// peekSlot returns slot s's live state, or nil. Finalized slots have none.
func (n *Node) peekSlot(s types.Slot) *slotState {
	if s < 1 || s <= n.finalized {
		return nil
	}
	if st := n.ring[uint64(s)%slotRingLen]; st != nil && st.slot == s {
		return st
	}
	if len(n.extra) > 0 {
		return n.extra[s]
	}
	return nil
}

// slot returns slot s's state, creating it if needed. Callers must not ask
// for finalized slots — their state is recycled, and finalized facts live
// in the chain instead.
func (n *Node) slot(s types.Slot) *slotState {
	if st := n.peekSlot(s); st != nil {
		return st
	}
	// A recycled record is reset here, where the writes that follow touch it
	// anyway. It keeps its arrays and its own entry's and view record's
	// bitsets; other entries and view records are dropped.
	var st *slotState
	if k := len(n.freeSlots); k > 0 {
		st, n.freeSlots = n.freeSlots[k-1], n.freeSlots[:k-1]
	} else {
		st = new(slotState)
	}
	b, vr := &st.entry0, &st.rec0
	b.hasBody, b.value, b.parent, b.voted, b.notarized, b.notView, b.votes = false, "", nil, false, false, 0, b.votes[:0]
	vr.vcVotes.Clear()
	vr.view, vr.proposed, vr.sentVote, vr.prop, vr.suggests, vr.proofs = 0, false, false, nil, nil, nil
	clear(st.views)
	clear(st.blocks)
	st.slot, st.started, st.view, st.votes, st.highestVC, st.deadline, st.cur = s, false, 0, core.VoteState{}, 0, 0, nil
	st.views, st.blocks = st.views[:0], st.blocks[:0]
	if st.blocks == nil {
		st.blocks = st.tab[:0]
	}
	if i := uint64(s) % slotRingLen; n.inWindow(s) && n.ring[i] == nil {
		n.ring[i] = st
	} else {
		// Out-of-window slots (a restored node's far-ahead persisted state)
		// spill to the side map.
		if n.extra == nil {
			n.extra = make(map[types.Slot]*slotState)
		}
		n.extra[s] = st
	}
	return st
}

// rec returns the slot's record for view v, creating it if needed.
func (n *Node) rec(st *slotState, v types.View) *viewRec {
	if vr := st.recIf(v); vr != nil {
		return vr
	}
	vr := &st.rec0
	if len(st.views) > 0 {
		vr = new(viewRec)
	}
	vr.view = v
	st.views = append(st.views, vr)
	if v == st.view {
		st.cur = vr
	}
	return vr
}

// votesOf returns the vote bitset of entry b in view v, creating it if
// needed: the entry's own words for the first view (up to 128 members),
// else a bitset that a recycled entry keeps and re-extension clears.
func (n *Node) votesOf(b *blockRec, v types.View) quorum.Bits {
	if n.words <= len(b.words) && (!b.voted || b.view0 == v) {
		if !b.voted {
			b.voted, b.view0, b.words = true, v, [2]uint64{}
		}
		return b.words[:n.words]
	}
	for i := range b.votes {
		if b.votes[i].view == v {
			return b.votes[i].bits
		}
	}
	if len(b.votes) < cap(b.votes) {
		b.votes = b.votes[:len(b.votes)+1]
	} else {
		b.votes = append(b.votes, viewVotes{})
	}
	t := &b.votes[len(b.votes)-1]
	t.view = v
	if t.bits == nil {
		t.bits = quorum.NewBits(len(n.members))
	} else {
		t.bits.Clear()
	}
	return t.bits
}

// emit reports a protocol event with no block note.
func (n *Node) emit(env types.Env, typ string, s types.Slot, v types.View) {
	if n.cfg.Tracer == nil {
		return
	}
	n.cfg.Tracer.Emit(trace.Event{Time: env.Now(), Node: n.cfg.ID, Type: typ, View: v, Slot: s, Multi: true})
}

// emitB reports a protocol event about a block. The ID renders to a string
// only when a tracer is actually attached.
func (n *Node) emitB(env types.Env, typ string, s types.Slot, v types.View, id types.BlockID) {
	if n.cfg.Tracer == nil {
		return
	}
	n.cfg.Tracer.Emit(trace.Event{Time: env.Now(), Node: n.cfg.ID, Type: typ, View: v, Slot: s, Note: id.String(), Multi: true})
}
