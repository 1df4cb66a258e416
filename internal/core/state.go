package core

import (
	"encoding/binary"
	"fmt"

	"tetrabft/internal/types"
)

// VoteState is the constant-size persistent vote history of a TetraBFT node
// (Section 3.1): the highest vote-1..vote-4 it ever sent, plus the
// second-highest vote-1 and vote-2 that carry a *different* value from the
// corresponding highest vote. This — plus the current view and the highest
// view-change sent — is everything a node must persist, which is how the
// protocol achieves the paper's constant-storage property.
type VoteState struct {
	Vote1     types.VoteRef
	PrevVote1 types.VoteRef
	Vote2     types.VoteRef
	PrevVote2 types.VoteRef
	Vote3     types.VoteRef
	Vote4     types.VoteRef
}

// Record updates the state for a freshly sent vote-phase message. Views are
// non-decreasing across calls for a given phase (a well-behaved node votes
// at most once per phase per view, and only in its current view).
func (s *VoteState) Record(phase uint8, view types.View, val types.Value) {
	switch phase {
	case 1:
		recordWithPrev(&s.Vote1, &s.PrevVote1, view, val)
	case 2:
		recordWithPrev(&s.Vote2, &s.PrevVote2, view, val)
	case 3:
		s.Vote3 = types.Vote(view, val)
	case 4:
		s.Vote4 = types.Vote(view, val)
	default:
		panic(fmt.Sprintf("core: invalid vote phase %d", phase))
	}
}

// recordWithPrev maintains the paper's highest/second-highest invariant:
// prev is the highest-view vote whose value differs from the highest vote's
// value. When the new highest vote changes value, the old highest becomes
// prev (it is necessarily the highest vote with a different value).
func recordWithPrev(highest, prev *types.VoteRef, view types.View, val types.Value) {
	if highest.Valid && highest.Val != val {
		*prev = *highest
	}
	*highest = types.Vote(view, val)
}

// Suggest renders the state as the suggest message for view v
// (vote-2 history; Section 3.1).
func (s VoteState) Suggest(v types.View) types.SuggestMsg {
	return types.SuggestMsg{View: v, Vote2: s.Vote2, PrevVote2: s.PrevVote2, Vote3: s.Vote3}
}

// Proof renders the state as the proof message for view v
// (vote-1 history; Section 3.1).
func (s VoteState) Proof(v types.View) types.ProofMsg {
	return types.ProofMsg{View: v, Vote1: s.Vote1, PrevVote1: s.PrevVote1, Vote4: s.Vote4}
}

// PersistentState is the full durable footprint of a node. Its encoded size
// is the "storage" column of Table 1.
type PersistentState struct {
	View      types.View
	HighestVC types.View
	Votes     VoteState
}

// MarshalBinary encodes the persistent state into a fresh slice of exactly
// PersistentSize bytes.
func (p PersistentState) MarshalBinary() ([]byte, error) {
	return p.AppendBinary(make([]byte, 0, p.PersistentSize()))
}

// AppendBinary appends the MarshalBinary encoding to b.
func (p PersistentState) AppendBinary(b []byte) ([]byte, error) {
	b = binary.AppendVarint(b, int64(p.View))
	b = binary.AppendVarint(b, int64(p.HighestVC))
	b = appendRef(b, p.Votes.Vote1)
	b = appendRef(b, p.Votes.PrevVote1)
	b = appendRef(b, p.Votes.Vote2)
	b = appendRef(b, p.Votes.PrevVote2)
	b = appendRef(b, p.Votes.Vote3)
	b = appendRef(b, p.Votes.Vote4)
	return b, nil
}

// UnmarshalBinary decodes state encoded by MarshalBinary.
func (p *PersistentState) UnmarshalBinary(data []byte) error {
	d := decoder{buf: data}
	p.View = types.View(d.varint())
	p.HighestVC = types.View(d.varint())
	refs := []*types.VoteRef{&p.Votes.Vote1, &p.Votes.PrevVote1, &p.Votes.Vote2, &p.Votes.PrevVote2, &p.Votes.Vote3, &p.Votes.Vote4}
	for _, r := range refs {
		*r = d.ref()
	}
	if d.err != nil {
		return fmt.Errorf("core: decode persistent state: %w", d.err)
	}
	if len(d.buf) != 0 {
		return fmt.Errorf("core: decode persistent state: %d trailing bytes", len(d.buf))
	}
	return nil
}

// PersistentSize returns the encoded byte size of the state, computed from
// the field widths without encoding.
func (p PersistentState) PersistentSize() int {
	return varintSize(int64(p.View)) + varintSize(int64(p.HighestVC)) +
		refSize(p.Votes.Vote1) + refSize(p.Votes.PrevVote1) +
		refSize(p.Votes.Vote2) + refSize(p.Votes.PrevVote2) +
		refSize(p.Votes.Vote3) + refSize(p.Votes.Vote4)
}

func varintSize(v int64) int {
	var tmp [binary.MaxVarintLen64]byte
	return binary.PutVarint(tmp[:], v)
}

// refSize mirrors appendRef.
func refSize(r types.VoteRef) int {
	if !r.Valid {
		return 1
	}
	var tmp [binary.MaxVarintLen64]byte
	return 1 + varintSize(int64(r.View)) + binary.PutUvarint(tmp[:], uint64(len(r.Val))) + len(r.Val)
}

func appendRef(buf []byte, r types.VoteRef) []byte {
	if !r.Valid {
		return append(buf, 0)
	}
	buf = append(buf, 1)
	buf = binary.AppendVarint(buf, int64(r.View))
	buf = binary.AppendUvarint(buf, uint64(len(r.Val)))
	return append(buf, r.Val...)
}

type decoder struct {
	buf []byte
	err error
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = types.ErrBadMessage
	}
}

func (d *decoder) byte() byte {
	if d.err != nil || len(d.buf) == 0 {
		d.fail()
		return 0
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	return b
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) ref() types.VoteRef {
	switch d.byte() {
	case 0:
		return types.VoteRef{}
	case 1:
		view := types.View(d.varint())
		n := d.uvarint()
		if d.err != nil || n > uint64(len(d.buf)) {
			d.fail()
			return types.VoteRef{}
		}
		val := types.Value(d.buf[:n])
		d.buf = d.buf[n:]
		return types.VoteRef{Valid: true, View: view, Val: val}
	default:
		d.fail()
		return types.VoteRef{}
	}
}
