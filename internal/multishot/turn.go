package multishot

import "tetrabft/internal/types"

// A turn is one Start, Deliver or Tick. Handlers never send through the Env
// directly: send and broadcast append to the node's buffer, state changes a
// peer could learn of only set dirty, and endTurn applies the two rules of a
// turn. The first makes the node write-ahead by construction —
//
//	if the turn has sends and the state is dirty, persist one snapshot,
//	then release the sends in call order.
//
// The snapshot is taken after the handler ran, so it holds every vote, view
// and view-change call any of the buffered messages reveals. A failed write
// halts the node and drops the sends. A turn with nothing to send writes
// nothing: what it changed (the finalized watermark, say) is not known to
// anyone yet and rides on the next write.
//
// The second keeps that write off the commit path of the transactions the
// turn proposes —
//
//	a fresh proposal is assembled at release: the handler decides that it
//	proposes, on which parent; the body is drawn after the write returned.
//
// tryPropose queues slot, view and parent (proposeFresh); the batch source is
// asked between the write and the first send, with the clock as it stands
// then. No follower can vote a slot before the write that notarizes its
// parent, so a batch fixed ahead of that write only waits it out — and a
// transaction that arrives during it misses the slot. Nothing persisted holds
// a proposal, so the first rule is untouched; a failed write draws no batch.

// outMsg is one buffered send; bcast selects Broadcast over Send(to).
type outMsg struct {
	to    types.NodeID
	bcast bool
	msg   types.Message
}

// lateProposal is a fresh proposal the handler decided on and the release
// assembles: out[at] is the broadcast that waits for its message.
type lateProposal struct {
	at     int
	slot   types.Slot
	view   types.View
	parent types.BlockID
}

func (n *Node) send(to types.NodeID, msg types.Message) {
	n.out = append(n.out, outMsg{to: to, msg: msg})
}

func (n *Node) broadcast(msg types.Message) {
	n.out = append(n.out, outMsg{bcast: true, msg: msg})
}

// proposeFresh takes the proposal's place in the turn's call order; its body
// is bound when the turn releases it.
func (n *Node) proposeFresh(s types.Slot, v types.View, parent types.BlockID) {
	n.late = append(n.late, lateProposal{at: len(n.out), slot: s, view: v, parent: parent})
	n.broadcast(nil)
}

// endTurn closes the turn. A turn that sent nothing costs this one compare
// (endTurn inlines into Deliver); the rest is writeAndRelease.
func (n *Node) endTurn(env types.Env) {
	if len(n.out) != n.durable {
		n.writeAndRelease(env)
	}
}

// writeAndRelease is the single place the node persists, the single place it
// draws a proposal body and the single place it hands messages to the Env,
// in that order.
func (n *Node) writeAndRelease(env types.Env) {
	if n.dirty && n.cfg.Persist != nil {
		if err := n.cfg.Persist.Persist(n.persistView()); err != nil {
			n.halted = true
			n.dropOut()
			return
		}
	}
	n.dirty = false
	// Every body is bound before the first send leaves, so the turn's vote
	// and proposal still reach a peer's writer together.
	for _, p := range n.late {
		msg := types.NewMSPropose(p.view, n.freshBlock(env, p.slot, p.parent))
		id, val := msg.BlockValue()
		n.keepBody(id, val, &msg.Block)
		n.emitB(env, "propose", p.slot, p.view, id)
		n.out[p.at].msg = msg
	}
	n.late = n.late[:0]
	// durable is only non-zero while the release loop below runs, so finding
	// it set means the Env delivered a released broadcast straight back (a
	// loopback Env does; the simulator and the TCP runtime queue it): this
	// turn's sends are durable now and that loop gets to them.
	nested := n.durable > 0
	n.durable = len(n.out)
	if nested {
		return
	}
	for i := 0; i < len(n.out); i++ {
		o := n.out[i]
		if o.bcast {
			env.Broadcast(o.msg)
		} else {
			env.Send(o.to, o.msg)
		}
	}
	n.dropOut()
}

// freshBlock assembles a new proposal body: the payload header plus the
// transaction batch the configured source offers for this slot at env.Now().
func (n *Node) freshBlock(env types.Env, s types.Slot, parent types.BlockID) types.Block {
	b := types.Block{Slot: s, Parent: parent, Payload: n.cfg.Payload(s)}
	if n.cfg.Batch != nil {
		b.Txs = n.cfg.Batch(s, env.Now())
	}
	return b
}

// dropOut empties the send buffer, letting go of the messages it held and of
// the proposals that were never assembled.
func (n *Node) dropOut() {
	clear(n.out)
	n.out = n.out[:0]
	n.late = n.late[:0]
	n.durable = 0
}
