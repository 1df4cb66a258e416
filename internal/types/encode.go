package types

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrBadMessage reports a malformed or truncated wire message.
var ErrBadMessage = errors.New("types: malformed message")

// Encode serializes a message into the repository's compact wire format:
// one kind byte followed by varint-encoded fields. Every protocol (TetraBFT
// and all baselines) shares this format so that the "communicated bits"
// measurements of Table 1 are apples-to-apples.
func Encode(m Message) []byte {
	return AppendEncode(nil, m)
}

// AppendEncode serializes a message into the wire format of Encode,
// appending to buf and returning the extended slice. Callers that reuse a
// buffer across messages avoid the per-message allocation of Encode.
func AppendEncode(buf []byte, m Message) []byte {
	w := writer{buf: buf}
	w.byte(byte(m.Kind()))
	switch v := m.(type) {
	case Proposal:
		w.view(v.View)
		w.value(v.Val)
	case VoteMsg:
		w.byte(v.Phase)
		w.view(v.View)
		w.value(v.Val)
	case SuggestMsg:
		w.view(v.View)
		w.ref(v.Vote2)
		w.ref(v.PrevVote2)
		w.ref(v.Vote3)
	case ProofMsg:
		w.view(v.View)
		w.ref(v.Vote1)
		w.ref(v.PrevVote1)
		w.ref(v.Vote4)
	case ViewChange:
		w.view(v.View)
	case MSPropose:
		w.view(v.View)
		w.block(v.Block)
	case MSVote:
		w.int64(int64(v.Slot))
		w.view(v.View)
		w.bytes(v.Block[:])
	case MSViewChange:
		w.int64(int64(v.Slot))
		w.view(v.View)
	case MSSuggest:
		w.int64(int64(v.Slot))
		w.view(v.View)
		w.ref(v.Vote2)
		w.ref(v.PrevVote2)
		w.ref(v.Vote3)
	case MSProof:
		w.int64(int64(v.Slot))
		w.view(v.View)
		w.ref(v.Vote1)
		w.ref(v.PrevVote1)
		w.ref(v.Vote4)
	case MSFinal:
		w.block(v.Block)
	case GenericVote:
		w.byte(byte(v.Proto))
		w.byte(v.Phase)
		w.view(v.View)
		w.int64(int64(v.Slot))
		w.value(v.Val)
	case Evidence:
		w.byte(byte(v.Proto))
		w.byte(v.Phase)
		w.view(v.View)
		w.value(v.Val)
		w.uvarint(uint64(len(v.Evidence)))
		for _, r := range v.Evidence {
			w.ref(r)
		}
	default:
		// Unknown concrete types indicate a programming error inside the
		// repository, not runtime input; fail loudly during development.
		panic(fmt.Sprintf("types: cannot encode %T", m))
	}
	return w.buf
}

// EncodedSize returns the wire size of a message in bytes, computed
// analytically from field widths. It allocates nothing and agrees with
// len(Encode(m)) for every message kind (asserted by a differential test),
// which makes byte accounting on the simulator hot path allocation-free.
func EncodedSize(m Message) int {
	switch v := m.(type) {
	case Proposal:
		return 1 + varintSize(int64(v.View)) + valueSize(v.Val)
	case VoteMsg:
		return 2 + varintSize(int64(v.View)) + valueSize(v.Val)
	case SuggestMsg:
		return 1 + varintSize(int64(v.View)) + refSize(v.Vote2) + refSize(v.PrevVote2) + refSize(v.Vote3)
	case ProofMsg:
		return 1 + varintSize(int64(v.View)) + refSize(v.Vote1) + refSize(v.PrevVote1) + refSize(v.Vote4)
	case ViewChange:
		return 1 + varintSize(int64(v.View))
	case MSPropose:
		return 1 + varintSize(int64(v.View)) + blockSize(v.Block)
	case MSVote:
		return 1 + varintSize(int64(v.Slot)) + varintSize(int64(v.View)) + len(v.Block)
	case MSViewChange:
		return 1 + varintSize(int64(v.Slot)) + varintSize(int64(v.View))
	case MSSuggest:
		return 1 + varintSize(int64(v.Slot)) + varintSize(int64(v.View)) +
			refSize(v.Vote2) + refSize(v.PrevVote2) + refSize(v.Vote3)
	case MSProof:
		return 1 + varintSize(int64(v.Slot)) + varintSize(int64(v.View)) +
			refSize(v.Vote1) + refSize(v.PrevVote1) + refSize(v.Vote4)
	case MSFinal:
		return 1 + blockSize(v.Block)
	case GenericVote:
		return 3 + varintSize(int64(v.View)) + varintSize(int64(v.Slot)) + valueSize(v.Val)
	case Evidence:
		n := 3 + varintSize(int64(v.View)) + valueSize(v.Val) + uvarintSize(uint64(len(v.Evidence)))
		for _, r := range v.Evidence {
			n += refSize(r)
		}
		return n
	default:
		panic(fmt.Sprintf("types: cannot size %T", m))
	}
}

// uvarintSize is the number of bytes binary.AppendUvarint emits for v.
func uvarintSize(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// varintSize is the number of bytes binary.AppendVarint emits for v
// (zig-zag followed by uvarint).
func varintSize(v int64) int {
	uv := uint64(v) << 1
	if v < 0 {
		uv = ^uv
	}
	return uvarintSize(uv)
}

func valueSize(v Value) int { return uvarintSize(uint64(len(v))) + len(v) }

// blockSize mirrors writer.block analytically (everything after the kind
// byte and any view field).
func blockSize(b Block) int {
	n := varintSize(int64(b.Slot)) + len(b.Parent) + bytesSize(b.Payload)
	if len(b.Txs) > 0 {
		n += uvarintSize(uint64(len(b.Txs)))
		for _, tx := range b.Txs {
			n += bytesSize(tx)
		}
	}
	return n
}

func bytesSize(b []byte) int { return uvarintSize(uint64(len(b))) + len(b) }

func refSize(r VoteRef) int {
	if !r.Valid {
		return 1
	}
	return 1 + varintSize(int64(r.View)) + valueSize(r.Val)
}

// Decode parses a message previously produced by Encode.
func Decode(data []byte) (Message, error) {
	r := reader{buf: data}
	kind := Kind(r.byte())
	var m Message
	switch kind {
	case KindProposal:
		m = Proposal{View: r.view(), Val: r.value()}
	case KindVote:
		m = VoteMsg{Phase: r.byte(), View: r.view(), Val: r.value()}
	case KindSuggest:
		m = SuggestMsg{View: r.view(), Vote2: r.ref(), PrevVote2: r.ref(), Vote3: r.ref()}
	case KindProof:
		m = ProofMsg{View: r.view(), Vote1: r.ref(), PrevVote1: r.ref(), Vote4: r.ref()}
	case KindViewChange:
		m = ViewChange{View: r.view()}
	case KindMSPropose:
		v := MSPropose{View: r.view()}
		v.Block = r.block(false)
		m = v
	case KindMSProposeBatch:
		v := MSPropose{View: r.view()}
		v.Block = r.block(true)
		if len(v.Block.Txs) == 0 { // batch kind must carry a batch, or the
			return nil, ErrBadMessage // same block gets two encodings
		}
		m = v
	case KindMSVote:
		v := MSVote{Slot: Slot(r.int64()), View: r.view()}
		r.fixed(v.Block[:])
		m = v
	case KindMSViewChange:
		m = MSViewChange{Slot: Slot(r.int64()), View: r.view()}
	case KindMSSuggest:
		m = MSSuggest{Slot: Slot(r.int64()), View: r.view(), Vote2: r.ref(), PrevVote2: r.ref(), Vote3: r.ref()}
	case KindMSProof:
		m = MSProof{Slot: Slot(r.int64()), View: r.view(), Vote1: r.ref(), PrevVote1: r.ref(), Vote4: r.ref()}
	case KindMSFinal:
		m = MSFinal{Block: r.block(false)}
	case KindMSFinalBatch:
		v := MSFinal{Block: r.block(true)}
		if len(v.Block.Txs) == 0 {
			return nil, ErrBadMessage
		}
		m = v
	case KindGenericVote:
		m = GenericVote{Proto: Proto(r.byte()), Phase: r.byte(), View: r.view(), Slot: Slot(r.int64()), Val: r.value()}
	case KindEvidence:
		v := Evidence{Proto: Proto(r.byte()), Phase: r.byte(), View: r.view(), Val: r.value()}
		n := r.uvarint()
		if n > uint64(len(r.buf)) { // each ref costs ≥1 byte; reject bogus counts
			return nil, ErrBadMessage
		}
		if n > 0 {
			v.Evidence = make([]VoteRef, 0, n)
			for i := uint64(0); i < n; i++ {
				v.Evidence = append(v.Evidence, r.ref())
			}
		}
		m = v
	default:
		return nil, fmt.Errorf("%w: unknown kind %d", ErrBadMessage, kind)
	}
	if r.err != nil {
		return nil, r.err
	}
	if len(r.buf) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadMessage, len(r.buf))
	}
	return m, nil
}

type writer struct {
	buf []byte
}

func (w *writer) byte(b byte)      { w.buf = append(w.buf, b) }
func (w *writer) bytes(b []byte)   { w.buf = append(w.buf, b...) }
func (w *writer) uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }
func (w *writer) int64(v int64)    { w.buf = binary.AppendVarint(w.buf, v) }
func (w *writer) view(v View)      { w.int64(int64(v)) }

func (w *writer) value(v Value) {
	w.uvarint(uint64(len(v)))
	w.buf = append(w.buf, v...)
}

// block writes slot, parent and payload; a non-empty batch appends its
// uvarint count and length-prefixed transactions (the *-batch kind byte,
// written by the caller, announces their presence).
func (w *writer) block(b Block) {
	w.int64(int64(b.Slot))
	w.bytes(b.Parent[:])
	w.value(Value(b.Payload))
	if len(b.Txs) > 0 {
		w.uvarint(uint64(len(b.Txs)))
		for _, tx := range b.Txs {
			w.uvarint(uint64(len(tx)))
			w.buf = append(w.buf, tx...)
		}
	}
}

func (w *writer) ref(r VoteRef) {
	if !r.Valid {
		w.byte(0)
		return
	}
	w.byte(1)
	w.view(r.View)
	w.value(r.Val)
}

type reader struct {
	buf []byte
	err error
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = ErrBadMessage
	}
}

func (r *reader) byte() byte {
	if r.err != nil || len(r.buf) == 0 {
		r.fail()
		return 0
	}
	b := r.buf[0]
	r.buf = r.buf[1:]
	return b
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

func (r *reader) int64() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

func (r *reader) view() View { return View(r.int64()) }

func (r *reader) value() Value {
	n := r.uvarint()
	if r.err != nil || n > uint64(len(r.buf)) {
		r.fail()
		return ""
	}
	v := Value(r.buf[:n])
	r.buf = r.buf[n:]
	return v
}

// bytes reads a length-prefixed byte string into a slice of its own: one
// copy, and nothing returned aliases the input.
func (r *reader) bytes() []byte {
	n := r.uvarint()
	if r.err != nil || n > uint64(len(r.buf)) {
		r.fail()
		return nil
	}
	b := make([]byte, n)
	copy(b, r.buf)
	r.buf = r.buf[n:]
	return b
}

func (r *reader) fixed(dst []byte) {
	if r.err != nil || len(r.buf) < len(dst) {
		r.fail()
		return
	}
	copy(dst, r.buf[:len(dst)])
	r.buf = r.buf[len(dst):]
}

// block reads the writer.block layout; batch selects the *-batch tail.
func (r *reader) block(batch bool) Block {
	var b Block
	b.Slot = Slot(r.int64())
	r.fixed(b.Parent[:])
	b.Payload = r.bytes()
	if !batch {
		return b
	}
	n := r.uvarint()
	if r.err != nil || n > uint64(len(r.buf)) { // each tx costs ≥1 byte
		r.fail()
		return b
	}
	if n > 0 {
		b.Txs = make([][]byte, 0, n)
		for i := uint64(0); i < n; i++ {
			b.Txs = append(b.Txs, r.bytes())
		}
	}
	return b
}

func (r *reader) ref() VoteRef {
	switch r.byte() {
	case 0:
		return VoteRef{}
	case 1:
		return VoteRef{Valid: true, View: r.view(), Val: r.value()}
	default:
		r.fail()
		return VoteRef{}
	}
}
