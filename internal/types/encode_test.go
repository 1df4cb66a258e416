package types

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// roundTripMsgs is one message of every kind, some in several shapes.
func roundTripMsgs() []Message {
	blk := Block{Slot: 7, Parent: Block{Slot: 6}.ID(), Payload: []byte("txns")}
	return []Message{
		Proposal{View: 0, Val: "a"},
		Proposal{View: 12, Val: ""},
		VoteMsg{Phase: 1, View: 3, Val: "x"},
		VoteMsg{Phase: 4, View: 0, Val: "longer value with spaces"},
		SuggestMsg{View: 5, Vote2: Vote(3, "a"), PrevVote2: Vote(1, "b"), Vote3: Vote(2, "a")},
		SuggestMsg{View: 5},
		ProofMsg{View: 9, Vote1: Vote(8, "v"), PrevVote1: VoteRef{}, Vote4: Vote(0, "w")},
		ViewChange{View: 4},
		MSPropose{View: 1, Block: blk},
		MSPropose{View: 3, Block: Block{Slot: 8, Parent: blk.ID(), Payload: []byte("hdr"),
			Txs: [][]byte{[]byte("tx-1"), []byte("tx-22")}}},
		MSFinal{Block: blk},
		MSFinal{Block: Block{Slot: 4, Parent: blk.ID(), Payload: []byte("p"),
			Txs: [][]byte{[]byte("t")}}},
		MSVote{Slot: 9, View: 2, Block: blk.ID()},
		MSViewChange{Slot: 3, View: 1},
		MSSuggest{Slot: 2, View: 1, Vote2: Vote(0, "p")},
		MSProof{Slot: 2, View: 1, Vote1: Vote(0, "p"), Vote4: Vote(0, "p")},
		GenericVote{Proto: ProtoPBFT, Phase: 2, View: 1, Slot: 0, Val: "q"},
		Evidence{Proto: ProtoPBFT, Phase: 1, View: 2, Val: "r",
			Evidence: []VoteRef{Vote(0, "a"), Vote(1, "b"), {}}},
		Evidence{Proto: ProtoITHS, Phase: 9, View: 0, Val: ""},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, m := range roundTripMsgs() {
		data := Encode(m)
		got, err := Decode(data)
		if err != nil {
			t.Fatalf("Decode(%v): %v", m, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Errorf("round trip mismatch: sent %#v got %#v", m, got)
		}
		if EncodedSize(m) != len(data) {
			t.Errorf("EncodedSize(%v) = %d, want %d", m, EncodedSize(m), len(data))
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{0},                  // kind 0 unknown
		{99},                 // unknown kind
		{byte(KindProposal)}, // truncated
		{byte(KindVote), 1},  // truncated
		append(Encode(Proposal{View: 1, Val: "x"}), 0xFF), // trailing
	}
	for i, data := range cases {
		if _, err := Decode(data); err == nil {
			t.Errorf("case %d: Decode(%v) succeeded, want error", i, data)
		}
	}
}

// TestBatchKindSelection asserts that the dynamic Kind dispatch keeps
// unbatched messages on the historical kinds (and therefore byte-identical
// to the pre-batching wire format) while batched ones travel as the
// *-batch kinds.
func TestBatchKindSelection(t *testing.T) {
	blk := Block{Slot: 5, Parent: Block{Slot: 4}.ID(), Payload: []byte("h")}
	batched := blk
	batched.Txs = [][]byte{[]byte("tx")}
	cases := []struct {
		msg  Message
		want Kind
	}{
		{MSPropose{View: 1, Block: blk}, KindMSPropose},
		{MSPropose{View: 1, Block: batched}, KindMSProposeBatch},
		{MSFinal{Block: blk}, KindMSFinal},
		{MSFinal{Block: batched}, KindMSFinalBatch},
	}
	for _, c := range cases {
		if got := c.msg.Kind(); got != c.want {
			t.Errorf("%#v Kind() = %s, want %s", c.msg, got, c.want)
		}
		if data := Encode(c.msg); Kind(data[0]) != c.want {
			t.Errorf("%#v encodes kind byte %d, want %s", c.msg, data[0], c.want)
		}
	}
	// The unbatched encoding must be a strict prefix of the batched one
	// (kind byte aside): batching only appends, it never reshapes.
	plain := Encode(MSPropose{View: 1, Block: blk})
	withTxs := Encode(MSPropose{View: 1, Block: batched})
	if !bytes.Equal(plain[1:], withTxs[1:len(plain)]) {
		t.Errorf("batched encoding reshapes the unbatched fields:\n  plain %x\n  batch %x", plain, withTxs)
	}
}

// TestDecodeRejectsEmptyBatch pins the canonical-encoding rule: a *-batch
// kind carrying zero transactions is malformed, because the same block
// would otherwise have two valid encodings.
func TestDecodeRejectsEmptyBatch(t *testing.T) {
	blk := Block{Slot: 5, Payload: []byte("h")}
	for _, c := range []struct {
		plain Kind
		batch Kind
		msg   Message
	}{
		{KindMSPropose, KindMSProposeBatch, MSPropose{View: 1, Block: blk}},
		{KindMSFinal, KindMSFinalBatch, MSFinal{Block: blk}},
	} {
		data := Encode(c.msg)
		if Kind(data[0]) != c.plain {
			t.Fatalf("setup: %v encoded as %s", c.msg, Kind(data[0]))
		}
		data[0] = byte(c.batch)
		forged := append(data, 0) // uvarint tx count 0
		if _, err := Decode(forged); err == nil {
			t.Errorf("%s with an empty batch decoded successfully, want error", c.batch)
		}
		// A bogus huge count must be rejected before allocating.
		forged[len(forged)-1] = 0xFF
		forged = append(forged, 0xFF, 0xFF, 0x7F)
		if _, err := Decode(forged); err == nil {
			t.Errorf("%s with a bogus tx count decoded successfully, want error", c.batch)
		}
	}
}

// truncationMsgs are the messages whose every proper prefix must not decode
// back to them.
func truncationMsgs() []Message {
	return []Message{
		SuggestMsg{View: 5, Vote2: Vote(3, "abc"), PrevVote2: Vote(1, "b"), Vote3: Vote(2, "a")},
		MSPropose{View: 1, Block: Block{Slot: 2, Payload: []byte("p")}},
		MSPropose{View: 1, Block: Block{Slot: 2, Payload: []byte("p"),
			Txs: [][]byte{[]byte("tx1"), []byte("tx2")}}},
		Evidence{Proto: ProtoPBFT, Phase: 1, View: 2, Val: "r", Evidence: []VoteRef{Vote(0, "a")}},
	}
}

func TestDecodeRejectsTruncations(t *testing.T) {
	for _, m := range truncationMsgs() {
		full := Encode(m)
		for cut := 1; cut < len(full); cut++ {
			if got, err := Decode(full[:cut]); err == nil && reflect.DeepEqual(got, m) {
				t.Errorf("truncated %v to %d bytes still decoded to original", m, cut)
			}
		}
	}
}

// quickRef builds an arbitrary VoteRef from fuzz inputs.
func quickRef(valid bool, view int16, val string) VoteRef {
	if !valid {
		return VoteRef{}
	}
	return VoteRef{Valid: true, View: View(abs16(view)), Val: Value(val)}
}

func abs16(v int16) int64 {
	if v < 0 {
		return -int64(v)
	}
	return int64(v)
}

func TestQuickProposalRoundTrip(t *testing.T) {
	f := func(view int32, val string) bool {
		m := Proposal{View: View(view), Val: Value(val)}
		got, err := Decode(Encode(m))
		return err == nil && got == Message(m)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickSuggestRoundTrip(t *testing.T) {
	f := func(view int16, v2ok bool, v2v int16, v2s string, pvok bool, pvv int16, pvs string, v3ok bool, v3v int16, v3s string) bool {
		m := SuggestMsg{
			View:      View(abs16(view)),
			Vote2:     quickRef(v2ok, v2v, v2s),
			PrevVote2: quickRef(pvok, pvv, pvs),
			Vote3:     quickRef(v3ok, v3v, v3s),
		}
		got, err := Decode(Encode(m))
		return err == nil && reflect.DeepEqual(got, Message(m))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickEvidenceRoundTrip(t *testing.T) {
	f := func(view int16, val string, n uint8, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		refs := make([]VoteRef, 0, n%16)
		for i := 0; i < int(n%16); i++ {
			refs = append(refs, quickRef(rng.Intn(2) == 0, int16(rng.Intn(100)), string(rune('a'+rng.Intn(26)))))
		}
		m := Evidence{Proto: ProtoPBFT, Phase: 1, View: View(abs16(view)), Val: Value(val), Evidence: refs}
		got, err := Decode(Encode(m))
		if err != nil {
			return false
		}
		ge, ok := got.(Evidence)
		if !ok {
			return false
		}
		if len(refs) == 0 {
			return len(ge.Evidence) == 0 && ge.Val == m.Val && ge.View == m.View
		}
		return reflect.DeepEqual(ge, m)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickDecodeNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		_, _ = Decode(data) // must not panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// batchProposal is a proposal carrying txs 24-byte transactions.
func batchProposal(txs int) MSPropose {
	p := MSPropose{View: 2, Block: Block{Slot: 5, Parent: Block{Slot: 4}.ID(), Payload: []byte("header")}}
	for i := 0; i < txs; i++ {
		p.Block.Txs = append(p.Block.Txs, bytes.Repeat([]byte{byte(i)}, 24))
	}
	return p
}

// TestDecodeCopiesBytesOnce: a decoded block owns its byte strings — the
// caller may reuse the buffer it decoded from — and each of them costs one
// allocation, so a batch proposal decodes in txs + O(1) allocations.
func TestDecodeCopiesBytesOnce(t *testing.T) {
	const txs = 128
	want := batchProposal(txs)
	frame := Encode(want)
	got, err := Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	for i := range frame {
		frame[i] = 0xff
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("the decoded proposal aliases the buffer it was decoded from")
	}
	frame = Encode(want)
	// The payload, the batch slice, the boxed message, and one per transaction.
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := Decode(frame); err != nil {
			t.Fatal(err)
		}
	}); allocs > txs+3 {
		t.Errorf("decoding a %d-transaction proposal allocates %.0f times, want at most %d", txs, allocs, txs+3)
	}
}

// FuzzDecode faces Decode with the bytes a peer may put on the socket. It
// never panics, and whatever it accepts is a well-formed message: the
// analytic size matches the encoding, the encoding decodes to the same
// message, the message shares nothing with the frame it was read from
// (transport's readLoop reuses that buffer for the next frame), and a
// decoded proposal carries no seal: its BlockID is its block's own hash.
func FuzzDecode(f *testing.F) {
	seeds := append(roundTripMsgs(), truncationMsgs()...)
	seeds = append(seeds, batchProposal(128))
	for _, m := range seeds {
		data := Encode(m)
		f.Add(data)
		f.Add(data[:len(data)/2])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		frame := append([]byte(nil), data...) // the engine's bytes are not ours to overwrite
		m, err := Decode(frame)
		if err != nil {
			return
		}
		if p, ok := m.(MSPropose); ok && (p.seal != (blockSeal{}) || p.BlockID() != p.Block.ID()) {
			t.Fatalf("decoded proposal %#v carries a seal", p)
		}
		enc := Encode(m)
		if EncodedSize(m) != len(enc) {
			t.Fatalf("EncodedSize(%#v) = %d, Encode gives %d bytes", m, EncodedSize(m), len(enc))
		}
		again, err := Decode(enc)
		if err != nil {
			t.Fatalf("Decode(Encode(%#v)): %v", m, err)
		}
		if !reflect.DeepEqual(again, m) {
			t.Fatalf("Decode(Encode(m)) = %#v, want m = %#v", again, m)
		}
		for i := range frame {
			frame[i] ^= 0xff
		}
		if !reflect.DeepEqual(again, m) {
			t.Fatalf("overwriting the frame changed the message decoded from it: now %#v, was %#v", m, again)
		}
	})
}
