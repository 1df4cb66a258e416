// Package types defines the identifiers, values, votes, blocks and wire
// messages shared by every protocol in this repository, together with the
// deterministic state-machine interfaces that protocol cores implement.
//
// Protocol cores are pure: they consume delivered messages and timer fires
// through the Machine interface and emit effects through the Env interface.
// All I/O (the discrete-event simulator, the TCP transport, the WAL) lives
// behind Env, which is what makes message-delay accounting, deterministic
// replay and model checking possible.
package types

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
)

// NodeID identifies a consensus node. Nodes are numbered 0..n-1.
type NodeID int

// View is a view (round) number. Views start at 0; NoView marks "none".
type View int64

// NoView is the sentinel for "no view" (e.g. a node that never voted).
const NoView View = -1

// Slot is a position in the multi-shot (blockchain) log. Slots start at 1,
// matching the paper's Algorithm 3. Slot 0 denotes the single-shot instance.
type Slot int64

// Time is virtual time in ticks. The simulator uses one tick per message
// delay in latency experiments, so decision times read directly as the
// "message delays" currency used throughout the paper.
type Time int64

// Duration is a span of virtual time in ticks.
type Duration int64

// TimerID names a timer set by a protocol core. Cores encode whatever they
// need (typically a view or slot number) and ignore stale fires themselves.
type TimerID int64

// Value is an opaque consensus value. The empty string is a legal value;
// "no value" is expressed by VoteRef.Valid or by context, never by "".
type Value string

// VoteRef records a (view, value) pair from a node's persistent vote state,
// as reported inside suggest and proof messages. The zero VoteRef means
// "this node never sent such a vote" (Valid == false).
type VoteRef struct {
	Valid bool
	View  View
	Val   Value
}

// Vote returns a valid VoteRef for the given view and value.
func Vote(v View, val Value) VoteRef {
	return VoteRef{Valid: true, View: v, Val: val}
}

// String renders the reference for traces and test failures.
func (r VoteRef) String() string {
	if !r.Valid {
		return "⊥"
	}
	return fmt.Sprintf("(v=%d,%q)", r.View, string(r.Val))
}

// BlockID is the hash-pointer identity of a block.
type BlockID [32]byte

// ZeroBlockID is the parent of the genesis block.
var ZeroBlockID BlockID

// String renders a short hex prefix of the block ID.
func (id BlockID) String() string {
	return hex.EncodeToString(id[:4])
}

// Value converts a block ID into an opaque consensus value so the multi-shot
// protocol can reuse the single-shot vote machinery.
func (id BlockID) Value() Value { return Value(id[:]) }

// BlockIDFromValue recovers a block ID from a consensus value produced by
// BlockID.Value. It reports false if the value has the wrong shape.
func BlockIDFromValue(v Value) (BlockID, bool) {
	var id BlockID
	if len(v) != len(id) {
		return id, false
	}
	copy(id[:], v)
	return id, true
}

// Block is a blockchain block: a payload linked to its parent by hash
// pointer, pinned to the slot it was proposed for. A batched block
// additionally carries an ordered slice of client transactions; a cluster
// either runs batched (every honest proposal sets Txs) or unbatched, so the
// two shapes never compete for the same slot.
type Block struct {
	Slot    Slot
	Parent  BlockID
	Payload []byte
	// Txs is the ordered client transaction batch (nil when unbatched).
	// Batched blocks travel as the *-batch wire kinds; a nil-Txs block
	// encodes and hashes exactly as it did before batching existed.
	Txs [][]byte
}

// NumTxs returns the batch size.
func (b Block) NumTxs() int { return len(b.Txs) }

// ID computes the block's hash-pointer identity: SHA-256 over the slot
// (8 bytes little-endian), the parent ID, the payload and, per transaction,
// its length (8 bytes little-endian) then its bytes. An empty batch
// contributes nothing, so unbatched blocks keep their historical identities.
//
// The input is staged in a stack chunk of idChunk bytes and handed to
// SHA-256 a whole chunk at a time; a field longer than the chunk goes
// straight through. The hashed byte stream is exactly the one a Write per
// field produces, so no ID depends on the staging (TestBlockIDKnownAnswers,
// FuzzBlockID), and ID allocates nothing (TestBlockIDZeroAllocs). It is one
// hash per call, never cached: the SHA-256 work is what a hash-pointer chain
// costs, only the per-Write overhead is gone. A proposal pays it once per
// process, not once per receiver, through MSPropose's seal (NewMSPropose,
// MSPropose.BlockID).
func (b Block) ID() BlockID {
	if hashed != nil {
		hashed()
	}
	h := sha256.New()
	var buf [idChunk]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(b.Slot))
	n := 8 + copy(buf[8:], b.Parent[:])
	// Field -1 is the payload, field i >= 0 transaction i after its length.
	// One loop, not a helper per field: h must stay a local for its calls
	// to be devirtualized and the digest to stay on the stack.
	for i := -1; i < len(b.Txs); i++ {
		p := b.Payload
		if i >= 0 {
			p = b.Txs[i]
			if n+8 > idChunk {
				h.Write(buf[:n])
				n = 0
			}
			binary.LittleEndian.PutUint64(buf[n:], uint64(len(p)))
			n += 8
		}
		if len(p) > idChunk {
			h.Write(buf[:n])
			h.Write(p)
			n = 0
			continue
		}
		for len(p) > 0 {
			c := copy(buf[n:], p)
			n += c
			p = p[c:]
			if n == idChunk {
				h.Write(buf[:])
				n = 0
			}
		}
	}
	h.Write(buf[:n])
	var id BlockID
	h.Sum(id[:0])
	return id
}

// idChunk is the size of Block.ID's staging chunk, a multiple of SHA-256's
// 64-byte block.
const idChunk = 1024

// hashed, when set, is called by every Block.ID. It is nil outside tests,
// which count block hashes through it (export_test.go).
var hashed func()

// Env is the effect interface protocol cores use to act on the world.
// Implementations: the discrete-event simulator and the TCP runtime.
type Env interface {
	// Now returns the current virtual (or wall) time.
	Now() Time
	// Send transmits msg to a single peer.
	Send(to NodeID, msg Message)
	// Broadcast transmits msg to every node, including the sender itself
	// (self-delivery is immediate; nodes count their own votes, matching
	// the paper's quorum counting).
	Broadcast(msg Message)
	// SetTimer schedules a Tick(id) after d. Timers are one-shot and are
	// never cancelled; cores ignore stale fires. What a re-arm does depends
	// on the engine: the simulator coalesces a re-arm of the same id for the
	// same instant into one fire, while the TCP runtime fires every arm,
	// and each arm stays a pending timer until it fires or the runtime
	// closes.
	SetTimer(id TimerID, d Duration)
	// Decide reports a decision for a slot (slot 0 for single-shot).
	Decide(slot Slot, val Value)
}

// Machine is a deterministic protocol state machine. The runtime guarantees
// the three methods are never invoked concurrently.
type Machine interface {
	// ID returns the node's identity.
	ID() NodeID
	// Start runs once at time zero, before any delivery.
	Start(env Env)
	// Deliver hands the machine a message from a peer.
	Deliver(env Env, from NodeID, msg Message)
	// Tick fires a timer previously set through Env.SetTimer.
	Tick(env Env, id TimerID)
}
