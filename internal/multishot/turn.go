package multishot

import "tetrabft/internal/types"

// A turn is one Start, Deliver or Tick. Handlers never send through the Env
// directly: send and broadcast append to the node's buffer, state changes a
// peer could learn of only set dirty, and endTurn applies the one rule that
// makes the node write-ahead by construction —
//
//	if the turn has sends and the state is dirty, persist one snapshot,
//	then release the sends in call order.
//
// The snapshot is taken after the handler ran, so it holds every vote, view
// and view-change call any of the buffered messages reveals. A failed write
// halts the node and drops the sends. A turn with nothing to send writes
// nothing: what it changed (the finalized watermark, say) is not known to
// anyone yet and rides on the next write.

// outMsg is one buffered send; bcast selects Broadcast over Send(to).
type outMsg struct {
	to    types.NodeID
	bcast bool
	msg   types.Message
}

func (n *Node) send(to types.NodeID, msg types.Message) {
	n.out = append(n.out, outMsg{to: to, msg: msg})
}

func (n *Node) broadcast(msg types.Message) {
	n.out = append(n.out, outMsg{bcast: true, msg: msg})
}

// endTurn closes the turn. A turn that sent nothing costs this one compare
// (endTurn inlines into Deliver); the rest is writeAndRelease.
func (n *Node) endTurn(env types.Env) {
	if len(n.out) != n.durable {
		n.writeAndRelease(env)
	}
}

// writeAndRelease is the single place the node persists and the single
// place it hands messages to the Env, in that order.
func (n *Node) writeAndRelease(env types.Env) {
	if n.dirty && n.cfg.Persist != nil {
		if err := n.cfg.Persist.Persist(n.persistView()); err != nil {
			n.halted = true
			n.dropOut()
			return
		}
	}
	n.dirty = false
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

// dropOut empties the send buffer, letting go of the messages it held.
func (n *Node) dropOut() {
	clear(n.out)
	n.out = n.out[:0]
	n.durable = 0
}
