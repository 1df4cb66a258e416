package types

import (
	"bytes"
	"testing"
	"unsafe"
)

// sealedBlock is a batched block with a payload and transactions long
// enough for a copy to reslice them.
func sealedBlock() Block {
	return Block{Slot: 9, Parent: Block{Slot: 8}.ID(), Payload: []byte("header-bytes"), Txs: batchOf(8, 22)}
}

// TestSealedBlockIDMatchesHash: a sealed proposal reports its block's own
// ID, batched or not, without hashing again.
func TestSealedBlockIDMatchesHash(t *testing.T) {
	for _, b := range []Block{sealedBlock(), {Slot: 1, Payload: []byte("p")}, {}} {
		m := NewMSPropose(3, b)
		stop := CountHashes()
		got := m.BlockID()
		if n := stop(); n != 0 {
			t.Errorf("slot %d: a sealed BlockID hashed %d times, want 0", b.Slot, n)
		}
		if want := b.ID(); got != want {
			t.Errorf("slot %d: sealed BlockID = %s, Block.ID = %s", b.Slot, got, want)
		}
		stop = CountHashes()
		id, val := m.BlockValue()
		if n := stop(); n != 0 || id != got || val != got.Value() {
			t.Errorf("slot %d: sealed BlockValue hashed %d times and returned (%s, %q), want (%s, its value)", b.Slot, n, id, val, got)
		}
		if _, again := m.BlockValue(); unsafe.StringData(string(again)) != unsafe.StringData(string(val)) {
			t.Errorf("slot %d: two BlockValue calls on one sealed proposal returned two strings", b.Slot)
		}
	}
}

// TestSealedCopyEditedRehashes: a copy of a sealed proposal whose block
// differs in any sealed field returns the hash of the block it carries, so
// an edited honest proposal cannot borrow the honest ID.
func TestSealedCopyEditedRehashes(t *testing.T) {
	edits := []struct {
		name string
		edit func(b *Block)
	}{
		{"slot", func(b *Block) { b.Slot++ }},
		{"parent", func(b *Block) { b.Parent[0] ^= 1 }},
		{"new payload slice", func(b *Block) { b.Payload = append([]byte(nil), "other-header"...) }},
		{"shortened payload", func(b *Block) { b.Payload = b.Payload[:len(b.Payload)-1] }},
		{"payload from its second byte", func(b *Block) { b.Payload = b.Payload[1:] }},
		{"emptied payload", func(b *Block) { b.Payload = nil }},
		{"new txs slice", func(b *Block) { b.Txs = append([][]byte{[]byte("forged")}, b.Txs[1:]...) }},
		{"shortened txs", func(b *Block) { b.Txs = b.Txs[:len(b.Txs)-1] }},
		{"txs from the second", func(b *Block) { b.Txs = b.Txs[1:] }},
		{"no txs", func(b *Block) { b.Txs = nil }},
	}
	for _, e := range edits {
		honest := NewMSPropose(2, sealedBlock())
		forged := honest
		e.edit(&forged.Block)
		stop := CountHashes()
		got := forged.BlockID()
		if n := stop(); n != 1 {
			t.Errorf("%s: the edited copy hashed %d times, want 1", e.name, n)
		}
		if want := forged.Block.ID(); got != want {
			t.Errorf("%s: BlockID = %s, want the edited block's own %s", e.name, got, want)
		}
		if got == honest.BlockID() {
			t.Errorf("%s: the edited copy borrowed the honest ID %s", e.name, got)
		}
		if id, val := forged.BlockValue(); id != got || val != got.Value() {
			t.Errorf("%s: BlockValue = (%s, %q), want the edited block's own ID and value", e.name, id, val)
		}
	}
	// The same bytes behind a fresh slice are another block to the seal: it
	// hashes again and, the bytes being equal, finds the same ID.
	honest := NewMSPropose(2, sealedBlock())
	copied := honest
	copied.Block.Payload = bytes.Clone(honest.Block.Payload)
	stop := CountHashes()
	if got, want := copied.BlockID(), honest.BlockID(); got != want {
		t.Errorf("a copied payload hashes to %s, want %s", got, want)
	}
	if n := stop(); n != 1 {
		t.Errorf("a copy with a fresh payload slice hashed %d times, want 1", n)
	}
}

// TestUnsealedProposalHashes: a literal and a decoded proposal carry no seal
// and hash the block they carry, once per BlockID call. The zero block's
// fields equal an unset seal's, so it also shows that an unset seal matches
// nothing.
func TestUnsealedProposalHashes(t *testing.T) {
	b := sealedBlock()
	sealed := NewMSPropose(4, b)
	decoded, err := Decode(Encode(sealed))
	if err != nil {
		t.Fatal(err)
	}
	for name, m := range map[string]MSPropose{"literal": {View: 4, Block: b}, "decoded": decoded.(MSPropose), "zero": {}} {
		if m.seal != (blockSeal{}) {
			t.Errorf("%s proposal carries a seal", name)
		}
		want := m.Block.ID()
		stop := CountHashes()
		if got := m.BlockID(); got != want {
			t.Errorf("%s: BlockID = %s, want %s", name, got, want)
		}
		if n := stop(); n != 1 {
			t.Errorf("%s: BlockID hashed %d times, want 1", name, n)
		}
	}
}

// TestSealLeavesTheWireAlone: sealing changes neither the encoding nor the
// analytic size of a proposal.
func TestSealLeavesTheWireAlone(t *testing.T) {
	for _, b := range []Block{sealedBlock(), {Slot: 3, Payload: []byte("p")}} {
		sealed, plain := NewMSPropose(6, b), MSPropose{View: 6, Block: b}
		if !bytes.Equal(Encode(sealed), Encode(plain)) {
			t.Errorf("slot %d: the sealed proposal encodes differently", b.Slot)
		}
		if EncodedSize(sealed) != EncodedSize(plain) || sealed.Kind() != plain.Kind() {
			t.Errorf("slot %d: the sealed proposal sizes or kinds differently", b.Slot)
		}
	}
}
