// Package shard is the service layer that turns one TetraBFT cluster into
// many: S independent multishot shard clusters serve disjoint key ranges
// behind a deterministic key→shard router and a client-facing gateway,
// and every shard periodically commits a digest of its decided log as a
// transaction into one anchor TetraBFT cluster (the two-layer L2-shards →
// L1-BFT architecture). The anchor chain is the cross-shard source of
// truth: at result-fold time every anchored digest must match a prefix of
// its shard's decided log, so a shard cannot silently rewrite history
// without the anchor cluster exposing it.
//
// The package holds the engine-independent primitives — Router, PrefixDigest,
// the anchor-transaction codec, and the HTTP Gateway — while the scenario
// package's sim and TCP engines own the run loops that wire them to real
// clusters. Keeping the primitives here (with no scenario dependency) lets
// the fold, the gateway, and the tests share one definition of "anchored".
package shard

import (
	"crypto/sha256"
	"hash"
	"hash/fnv"

	"tetrabft/internal/types"
)

// Router deterministically maps client keys onto shards. The same key
// always lands on the same shard (FNV-1a over the key bytes, mod S), so
// any gateway instance — or any client that knows S — computes the same
// placement without coordination.
type Router struct {
	// Shards is the shard count S (must be ≥ 1).
	Shards int
}

// Shard returns the home shard of a key.
func (r Router) Shard(key string) int {
	if r.Shards <= 1 {
		return 0
	}
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(r.Shards))
}

// PrefixDigest hashes the first k blocks of a decided log: SHA-256 over
// the concatenated block IDs of slots 1..k. Both ends of the anchoring
// loop compute it, kept running by a Digest — a shard commits the digest of
// its finalized log to the anchor cluster, and the result fold recomputes it
// from the shard's final chain to verify every anchored claim. Because block
// IDs already commit to slot, parent, payload and the transaction batch,
// equal digests mean byte-equal prefixes.
func PrefixDigest(chain []types.Block, k int) [32]byte {
	if k > len(chain) {
		k = len(chain)
	}
	h := sha256.New()
	for i := 0; i < k; i++ {
		id := chain[i].ID()
		h.Write(id[:])
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// blockID is types.Block.ID, a variable so tests can count the hashes a
// Digest takes.
var blockID = types.Block.ID

// Digest is PrefixDigest kept running: fed a decided log's blocks in slot
// order, one SHA-256 write each, its Sum after k blocks is
// PrefixDigest(chain, k). A prefix that grows costs only its new blocks.
type Digest struct {
	h hash.Hash
	n int
}

// NewDigest returns the digest of the empty prefix.
func NewDigest() *Digest { return &Digest{h: sha256.New()} }

// Add extends the digested prefix by its next block.
func (d *Digest) Add(b types.Block) {
	id := blockID(b)
	d.h.Write(id[:])
	d.n++
}

// Len is the number of blocks digested.
func (d *Digest) Len() int { return d.n }

// Sum is the digest of the blocks added so far.
func (d *Digest) Sum() [32]byte { return [32]byte(d.h.Sum(nil)) }
