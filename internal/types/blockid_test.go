package types

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// perPieceID is Block.ID as it was written before the staging chunk: one
// SHA-256 Write per field and per transaction length. It is the reference
// FuzzBlockID and the known answers hold Block.ID to.
func perPieceID(b Block) BlockID {
	h := sha256.New()
	var buf [8]byte
	le := func(v int64) []byte {
		for i := range buf {
			buf[i] = byte(uint64(v) >> (8 * i))
		}
		return buf[:]
	}
	h.Write(le(int64(b.Slot)))
	h.Write(b.Parent[:])
	h.Write(b.Payload)
	for _, tx := range b.Txs {
		h.Write(le(int64(len(tx))))
		h.Write(tx)
	}
	var id BlockID
	h.Sum(id[:0])
	return id
}

// batchOf returns count transactions of size bytes each, numbered so that no
// two are equal.
func batchOf(count, size int) [][]byte {
	txs := make([][]byte, count)
	for i := range txs {
		tx := bytes.Repeat([]byte{'t'}, size)
		copy(tx, fmt.Sprintf("%d", i))
		txs[i] = tx
	}
	return txs
}

// knownBlocks are the blocks whose IDs TestBlockIDKnownAnswers pins, covering
// every branch of the staging chunk: a field that fits, one that ends
// exactly on the chunk boundary, one longer than the chunk, a zero-length
// transaction, and a length word that does not fit in what is left.
func knownBlocks() []struct {
	name string
	b    Block
	hex  string
} {
	parent := Block{Slot: 6, Payload: []byte("genesis")}.ID()
	return []struct {
		name string
		b    Block
		hex  string
	}{
		{"unbatched", Block{Slot: 7, Parent: parent, Payload: []byte("txns")},
			"9b1812729fa54f33394fc6e06ece81762228452a1917dc96a8da6fd442f85813"},
		{"empty batch", Block{Slot: 7, Parent: parent, Payload: []byte("txns"), Txs: [][]byte{}},
			"9b1812729fa54f33394fc6e06ece81762228452a1917dc96a8da6fd442f85813"},
		{"64 txs of 22 B", Block{Slot: 1 << 40, Parent: parent, Payload: []byte("hdr"), Txs: batchOf(64, 22)},
			"8e22d97992376014d19104efcff0133d0b2400c393b45d657b594bd65ab3d453"},
		{"edge txs", Block{Slot: -3, Parent: parent, Payload: bytes.Repeat([]byte{'p'}, idChunk+1),
			Txs: [][]byte{{}, bytes.Repeat([]byte{'c'}, idChunk), bytes.Repeat([]byte{'L'}, 3*idChunk+5), []byte("tail")}},
			"6c9d4a9f0be4c23dbecfcd44d6ad6674667302c34b8fb71367544204816e31a7"},
		// 8 + 32 + 980 bytes leave 4 in the chunk: the first length word
		// does not fit.
		{"length word at the chunk end", Block{Slot: 2, Parent: parent, Payload: bytes.Repeat([]byte{'w'}, idChunk-44),
			Txs: [][]byte{[]byte("x"), []byte("y")}},
			"8dea2e66d250b2860763177887388f2d2801ba9015554151cef013221e1a20e3"},
	}
}

// TestBlockIDKnownAnswers pins the hex ID of blocks on every path through
// the staging chunk. The answers were computed by the per-field writer
// Block.ID used before the chunk, so a change to the hashed byte stream —
// which would change every block ID, and with it every golden — fails here
// first.
func TestBlockIDKnownAnswers(t *testing.T) {
	for _, c := range knownBlocks() {
		id := c.b.ID()
		if got := hex.EncodeToString(id[:]); got != c.hex {
			t.Errorf("%s: ID = %s, want %s", c.name, got, c.hex)
		}
		if ref := perPieceID(c.b); id != ref {
			t.Errorf("%s: ID = %x, per-piece writer %x", c.name, id, ref)
		}
	}
}

// FuzzBlockID holds Block.ID to the per-piece writer over arbitrary slots,
// parents, payloads and batches. Each cut byte adds a transaction of 8·cut
// bytes (0 to 2,040), so transactions on both sides of the chunk size, and
// batches spanning many chunks, come up.
func FuzzBlockID(f *testing.F) {
	f.Add(int64(7), []byte("parent"), []byte("txns"), []byte{}, false)
	f.Add(int64(-1), []byte{}, []byte{}, []byte{0, 1, 2}, true)
	f.Add(int64(1<<40), []byte("p"), bytes.Repeat([]byte{'x'}, idChunk), []byte{128, 0, 255, 127, 129}, true)
	src := bytes.Repeat([]byte("0123456789abcdef"), 2040/16+2)
	f.Fuzz(func(t *testing.T, slot int64, parent, payload, cuts []byte, batched bool) {
		b := Block{Slot: Slot(slot), Payload: payload}
		copy(b.Parent[:], parent)
		if batched {
			b.Txs = [][]byte{}
			for i, c := range cuts {
				b.Txs = append(b.Txs, src[i%16:i%16+8*int(c)])
			}
		}
		if got, want := b.ID(), perPieceID(b); got != want {
			t.Fatalf("ID = %x, per-piece writer %x (slot %d, payload %d B, %d txs)", got, want, slot, len(payload), len(b.Txs))
		}
	})
}

// TestBlockIDZeroAllocs pins Block.ID at zero allocations on every known
// block, the ones larger than the staging chunk included: it runs once per
// node per proposal.
func TestBlockIDZeroAllocs(t *testing.T) {
	for _, c := range knownBlocks() {
		b := c.b
		if allocs := testing.AllocsPerRun(100, func() { _ = b.ID() }); allocs != 0 {
			t.Errorf("%s: Block.ID allocates %.1f times per call, want 0", c.name, allocs)
		}
	}
}

// BenchmarkBlockID hashes the sim-pipeline's block shape: a 64-transaction
// batch of 22-byte transactions.
func BenchmarkBlockID(b *testing.B) {
	blk := Block{Slot: 9, Parent: Block{Slot: 8}.ID(), Payload: []byte("hdr"), Txs: batchOf(64, 22)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = blk.ID()
	}
}
