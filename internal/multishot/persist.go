package multishot

import (
	"encoding/binary"
	"fmt"

	"tetrabft/internal/core"
	"tetrabft/internal/types"
)

// Persister stores the multi-shot node's durable state. Persist is invoked
// once per turn, before any message of that turn is sent, and only by a turn
// that both changed durable state (since the last write) and sends something
// (write-ahead discipline, as in core.Persister; see turn.go). The turn's
// fresh proposals are assembled after Persist returns: Config.Payload and
// Config.Batch run between the write and the first send, so the time a write
// takes is time the batch source still collects. A failing Persister halts
// the node, with no batch drawn. state.Slots aliases a buffer the node
// refills on its next write: an implementation that keeps the state past the
// call copies it (encoding it, as the WAL does, is such a copy).
type Persister interface {
	Persist(state PersistentState) error
}

// PersistentState is the durable footprint of a multi-shot node: the
// Section 3.1 constant-size vote state of every in-flight slot (at most the
// ≤5-deep pipeline window) plus the finalized watermark. Finalized block
// bodies are deliberately NOT persisted — a recovered node re-fetches them
// from peers through the f+1 finality-claim catch-up protocol (onFinal), so
// the on-disk footprint stays constant across any chain length, matching
// the storage column of Table 1.
type PersistentState struct {
	// Finalized is the highest finalized slot at persist time.
	Finalized types.Slot
	// FinalHead is the finalized block at Finalized (zero when none).
	FinalHead types.BlockID
	// Slots holds the per-slot consensus state of every started,
	// unfinalized slot, in increasing slot order.
	Slots []SlotPersist
}

// SlotPersist is one in-flight slot's durable state.
type SlotPersist struct {
	Slot      types.Slot
	View      types.View
	HighestVC types.View
	Votes     core.VoteState
}

// MarshalBinary encodes the persistent state into a fresh slice of exactly
// PersistentSize bytes. Each slot's inner state reuses
// core.PersistentState's encoding — the single-shot durable record is
// exactly what one pipeline slot must remember.
func (p PersistentState) MarshalBinary() ([]byte, error) {
	return p.AppendBinary(make([]byte, 0, p.PersistentSize()))
}

// AppendBinary appends the MarshalBinary encoding to b.
func (p PersistentState) AppendBinary(b []byte) ([]byte, error) {
	b = binary.AppendVarint(b, int64(p.Finalized))
	b = append(b, p.FinalHead[:]...)
	b = binary.AppendUvarint(b, uint64(len(p.Slots)))
	for i := range p.Slots {
		s := &p.Slots[i]
		inner := core.PersistentState{View: s.View, HighestVC: s.HighestVC, Votes: s.Votes}
		b = binary.AppendVarint(b, int64(s.Slot))
		b = binary.AppendUvarint(b, uint64(inner.PersistentSize()))
		var err error
		if b, err = inner.AppendBinary(b); err != nil {
			return nil, fmt.Errorf("multishot: encode slot %d: %w", s.Slot, err)
		}
	}
	return b, nil
}

// UnmarshalBinary decodes state encoded by MarshalBinary.
func (p *PersistentState) UnmarshalBinary(data []byte) error {
	fail := func() error { return fmt.Errorf("multishot: decode persistent state: %w", types.ErrBadMessage) }
	fin, n := binary.Varint(data)
	if n <= 0 || fin < 0 {
		return fail()
	}
	data = data[n:]
	if len(data) < len(p.FinalHead) {
		return fail()
	}
	p.Finalized = types.Slot(fin)
	copy(p.FinalHead[:], data)
	data = data[len(p.FinalHead):]
	count, n := binary.Uvarint(data)
	if n <= 0 {
		return fail()
	}
	data = data[n:]
	p.Slots = nil
	var prev types.Slot
	for i := uint64(0); i < count; i++ {
		slot, n := binary.Varint(data)
		if n <= 0 || slot < 1 || types.Slot(slot) <= prev {
			return fail()
		}
		data = data[n:]
		size, n := binary.Uvarint(data)
		if n <= 0 || size > uint64(len(data[n:])) {
			return fail()
		}
		data = data[n:]
		var inner core.PersistentState
		if err := inner.UnmarshalBinary(data[:size]); err != nil {
			return fmt.Errorf("multishot: decode slot %d: %w", slot, err)
		}
		data = data[size:]
		prev = types.Slot(slot)
		p.Slots = append(p.Slots, SlotPersist{
			Slot: types.Slot(slot), View: inner.View, HighestVC: inner.HighestVC, Votes: inner.Votes,
		})
	}
	if len(data) != 0 {
		return fmt.Errorf("multishot: decode persistent state: %d trailing bytes", len(data))
	}
	return nil
}

// PersistentSize returns the encoded byte size of the state, computed from
// the field widths without encoding (as types.EncodedSize is).
func (p PersistentState) PersistentSize() int {
	var tmp [binary.MaxVarintLen64]byte
	size := binary.PutVarint(tmp[:], int64(p.Finalized)) + len(p.FinalHead) +
		binary.PutUvarint(tmp[:], uint64(len(p.Slots)))
	for i := range p.Slots {
		s := &p.Slots[i]
		inner := core.PersistentState{View: s.View, HighestVC: s.HighestVC, Votes: s.Votes}.PersistentSize()
		size += binary.PutVarint(tmp[:], int64(s.Slot)) + binary.PutUvarint(tmp[:], uint64(inner)) + inner
	}
	return size
}

// Snapshot captures the node's durable state: the finalized watermark plus
// every in-flight slot's constant-size vote state. The result shares nothing
// with the node.
func (n *Node) Snapshot() PersistentState { return n.snapshotInto(nil) }

// persistView is the snapshot the per-turn write hands to the Persister:
// its Slots live in the node's scratch and are overwritten by the next one.
func (n *Node) persistView() PersistentState {
	st := n.snapshotInto(n.persistSlots[:0])
	n.persistSlots = st.Slots
	return st
}

// snapshotInto captures the durable state, appending the slots to slots.
func (n *Node) snapshotInto(slots []SlotPersist) PersistentState {
	st := PersistentState{Finalized: n.finalized, FinalHead: n.finalHead(), Slots: slots}
	for ss := range n.inFlight {
		st.Slots = append(st.Slots, SlotPersist{
			Slot: ss.slot, View: ss.view, HighestVC: ss.highestVC, Votes: ss.votes,
		})
	}
	return st
}

// Restore rebuilds a node from persisted state, as after a crash. The
// in-flight slots recover their views and vote histories (so the recovered
// node can never contradict a pre-crash vote — the Section 3.1 safety
// argument); the finalized prefix is NOT reconstructed locally but
// re-fetched from peers via finality claims, so restarting Start() rejoins,
// catches up and re-finalizes the whole chain.
func Restore(cfg Config, state PersistentState) (*Node, error) {
	n, err := NewNode(cfg)
	if err != nil {
		return nil, err
	}
	var prev types.Slot
	for _, s := range state.Slots {
		if s.Slot < 1 || s.Slot <= prev {
			return nil, fmt.Errorf("multishot: restore: slots out of order at %d", s.Slot)
		}
		if s.View < 0 || s.HighestVC < 0 {
			return nil, fmt.Errorf("multishot: restore: negative view in slot %d", s.Slot)
		}
		prev = s.Slot
		st := n.slot(s.Slot)
		st.started, st.view, st.highestVC, st.votes = true, s.View, s.HighestVC, s.Votes
		n.maxSlot = max(n.maxSlot, s.Slot)
	}
	n.restored = true
	return n, nil
}

// Halted reports whether the node stopped after a failed persist.
func (n *Node) Halted() bool { return n.halted }
