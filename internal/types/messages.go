package types

import "fmt"

// Kind discriminates wire messages.
type Kind uint8

// Message kinds. Kinds 1-5 are single-shot TetraBFT (Section 3.1 of the
// paper), 6-10 are multi-shot TetraBFT (Section 6), and the rest serve the
// baseline protocols reproduced for Table 1.
const (
	KindProposal Kind = iota + 1
	KindVote
	KindSuggest
	KindProof
	KindViewChange

	KindMSPropose
	KindMSVote
	KindMSViewChange
	KindMSSuggest
	KindMSProof
	KindMSFinal

	KindGenericVote
	KindEvidence

	// Batched multi-shot variants: the same MSPropose/MSFinal shapes with a
	// transaction batch appended. Separate kinds (rather than a count field
	// on the base kinds) keep every unbatched message byte-identical to the
	// pre-batching wire format.
	KindMSProposeBatch
	KindMSFinalBatch
)

// String names the kind for traces.
func (k Kind) String() string {
	switch k {
	case KindProposal:
		return "proposal"
	case KindVote:
		return "vote"
	case KindSuggest:
		return "suggest"
	case KindProof:
		return "proof"
	case KindViewChange:
		return "view-change"
	case KindMSPropose:
		return "ms-propose"
	case KindMSVote:
		return "ms-vote"
	case KindMSViewChange:
		return "ms-view-change"
	case KindMSSuggest:
		return "ms-suggest"
	case KindMSProof:
		return "ms-proof"
	case KindMSFinal:
		return "ms-final"
	case KindGenericVote:
		return "generic-vote"
	case KindEvidence:
		return "evidence"
	case KindMSProposeBatch:
		return "ms-propose-batch"
	case KindMSFinalBatch:
		return "ms-final-batch"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Message is any wire message. Implementations are value types defined in
// this package so that encoding (and therefore byte accounting) lives in one
// place for every protocol in the repository.
type Message interface {
	Kind() Kind
}

// Proposal is the single-shot leader proposal ⟨proposal, v, val⟩.
type Proposal struct {
	View View
	Val  Value
}

// Kind implements Message.
func (Proposal) Kind() Kind { return KindProposal }

// VoteMsg is ⟨vote-i, v, val⟩ for i = Phase ∈ 1..4.
type VoteMsg struct {
	Phase uint8
	View  View
	Val   Value
}

// Kind implements Message.
func (VoteMsg) Kind() Kind { return KindVote }

// SuggestMsg carries a node's vote-2 history to the new leader:
// ⟨suggest, vote-2, prev-vote-2, vote-3⟩ (Section 3.1).
type SuggestMsg struct {
	View      View // the view this suggest is for
	Vote2     VoteRef
	PrevVote2 VoteRef
	Vote3     VoteRef
}

// Kind implements Message.
func (SuggestMsg) Kind() Kind { return KindSuggest }

// ProofMsg mirrors SuggestMsg with vote-1/vote-4 history, broadcast to all:
// ⟨proof, vote-1, prev-vote-1, vote-4⟩.
type ProofMsg struct {
	View      View
	Vote1     VoteRef
	PrevVote1 VoteRef
	Vote4     VoteRef
}

// Kind implements Message.
func (ProofMsg) Kind() Kind { return KindProof }

// ViewChange is ⟨view-change, v⟩: a request to move to view View.
type ViewChange struct {
	View View
}

// Kind implements Message.
func (ViewChange) Kind() Kind { return KindViewChange }

// MSPropose is the multi-shot leader proposal of a block for (Slot, View).
//
// A proposal built by NewMSPropose carries a seal: its block's ID, hashed
// once by the constructor, the ID's value string, and what identifies the
// block it was hashed from (slot, parent, and the backing array and length
// of Payload and of Txs). BlockID and BlockValue return the sealed ID and
// string while the carried block is still that exact block, and hash (and
// convert) otherwise. So every receiver of one sent message (the
// simulator's fan-out shares it, a runtime's self-delivery passes it back)
// reads the ID and the string its leader paid for, while a copy whose block
// was edited in a sealed field, a decoded message (Decode never seals) and a
// literal all hash the block they carry.
//
// The seal is a value inside the message: only NewMSPropose writes it and
// nothing changes it afterwards, so it needs no map, cache or lock. It
// trusts one rule that the simulator's fan-out already relies on: the bytes
// of a sent message, its payload and transactions included, are never
// written again.
type MSPropose struct {
	View  View
	Block Block
	seal  blockSeal
}

// blockSeal records a block's ID, and its value string, with the identity
// of the block hashed: a block with another slot, another parent, or another
// Payload or Txs slice (new or shortened) no longer matches it.
type blockSeal struct {
	id       BlockID
	val      Value
	parent   BlockID
	slot     Slot
	payload  *byte
	nPayload int
	txs      *[]byte
	nTxs     int
	set      bool
}

// NewMSPropose builds the proposal of b for view v, sealed with b's ID and
// its value string: the one hash and the one conversion the proposal costs
// in this process (see MSPropose).
func NewMSPropose(v View, b Block) MSPropose {
	id := b.ID()
	return MSPropose{View: v, Block: b, seal: blockSeal{
		id: id, val: id.Value(), parent: b.Parent, slot: b.Slot,
		payload: first(b.Payload), nPayload: len(b.Payload),
		txs: first(b.Txs), nTxs: len(b.Txs),
		set: true,
	}}
}

// BlockID returns m.Block.ID(): the sealed ID while m carries the block
// NewMSPropose hashed, a fresh hash otherwise.
func (m MSPropose) BlockID() BlockID {
	if m.sealed() {
		return m.seal.id
	}
	return m.Block.ID()
}

// BlockValue returns BlockID() and its value string: the sealed string
// while m carries the block NewMSPropose hashed, so that every receiver of
// one sent message shares one string, and a fresh conversion otherwise.
func (m *MSPropose) BlockValue() (BlockID, Value) {
	if m.sealed() {
		return m.seal.id, m.seal.val
	}
	id := m.Block.ID()
	return id, id.Value()
}

// sealed reports whether m carries the block its seal was made from.
func (m *MSPropose) sealed() bool {
	s, b := &m.seal, &m.Block
	return s.set && b.Slot == s.slot && b.Parent == s.parent &&
		len(b.Payload) == s.nPayload && first(b.Payload) == s.payload &&
		len(b.Txs) == s.nTxs && first(b.Txs) == s.txs
}

// first returns the address of s's first element, nil when s is empty: with
// the length, it names the bytes a slice covers.
func first[T any](s []T) *T {
	if len(s) == 0 {
		return nil
	}
	return &s[0]
}

// Kind implements Message: a proposal carrying a transaction batch travels
// as the batch kind, keeping batchless proposals byte-identical on the wire.
func (m MSPropose) Kind() Kind {
	if len(m.Block.Txs) > 0 {
		return KindMSProposeBatch
	}
	return KindMSPropose
}

// MSVote is the multi-shot ⟨vote, slot, view, value⟩. A vote for slot s
// doubles as vote-1 for s, vote-2 for s−1, vote-3 for s−2 and vote-4 for
// s−3 along the block's ancestor chain (Section 6.1).
type MSVote struct {
	Slot  Slot
	View  View
	Block BlockID
}

// Kind implements Message.
func (MSVote) Kind() Kind { return KindMSVote }

// MSViewChange is ⟨view-change, slot, view⟩: Slot is the lowest aborted slot.
type MSViewChange struct {
	Slot Slot
	View View
}

// Kind implements Message.
func (MSViewChange) Kind() Kind { return KindMSViewChange }

// MSSuggest is the per-slot suggest sent after a multi-shot view change.
type MSSuggest struct {
	Slot      Slot
	View      View
	Vote2     VoteRef
	PrevVote2 VoteRef
	Vote3     VoteRef
}

// Kind implements Message.
func (MSSuggest) Kind() Kind { return KindMSSuggest }

// MSProof is the per-slot proof broadcast after a multi-shot view change.
type MSProof struct {
	Slot      Slot
	View      View
	Vote1     VoteRef
	PrevVote1 VoteRef
	Vote4     VoteRef
}

// Kind implements Message.
func (MSProof) Kind() Kind { return KindMSProof }

// MSFinal is a finality claim used for straggler catch-up: a node that has
// finalized Block at its slot re-asserts it when peers still call view
// changes for that slot. f+1 matching claims contain at least one honest
// claimer, so adopting the claimed block is sound in the unauthenticated
// model (the same f+1-confirmation principle as Rule 2/4 blocking sets).
type MSFinal struct {
	Block Block
}

// Kind implements Message; batched claims travel as the batch kind (see
// MSPropose.Kind).
func (m MSFinal) Kind() Kind {
	if len(m.Block.Txs) > 0 {
		return KindMSFinalBatch
	}
	return KindMSFinal
}

// Proto labels which baseline protocol a GenericVote or Evidence message
// belongs to, so one encoding serves every baseline.
type Proto uint8

// Baseline protocol labels.
const (
	ProtoITHS Proto = iota + 1
	ProtoITHSBlog
	ProtoPBFT
	ProtoRBC
	ProtoLi
)

// GenericVote is the shared phase-message shape used by the baseline
// protocols (IT-HS echo/key/lock, PBFT pre-prepare/prepare/commit, Bracha
// RBC init/echo/ready, Li et al.). Phase semantics are per protocol.
type GenericVote struct {
	Proto Proto
	Phase uint8
	View  View
	Slot  Slot
	Val   Value
}

// Kind implements Message.
func (GenericVote) Kind() Kind { return KindGenericVote }

// Evidence is a baseline message that carries O(n) vote evidence, used by
// the PBFT view change (this is where PBFT's worst-case O(n³) total
// communication comes from: n nodes broadcasting O(n)-sized messages).
type Evidence struct {
	Proto    Proto
	Phase    uint8
	View     View
	Val      Value
	Evidence []VoteRef
}

// Kind implements Message.
func (Evidence) Kind() Kind { return KindEvidence }
