package shard

import (
	"bytes"
	"encoding/hex"
	"fmt"
)

// Anchor is one shard-to-anchor commitment: at epoch Epoch the shard's
// decided log had at least Slots finalized slots, and the digest of that
// prefix (PrefixDigest of slots 1..Slots) was Digest. Anchors ride the
// anchor cluster's ordinary transaction path — they are opaque batch
// payloads to consensus — so anchoring needs no protocol changes, and the
// anchor chain totally orders every shard's epochs.
type Anchor struct {
	// Shard is the committing shard's index in [0, S).
	Shard int
	// Epoch counts the shard's anchor submissions, starting at 1.
	Epoch int64
	// Slots is the decided-prefix length the digest covers.
	Slots int64
	// Digest is PrefixDigest(chain, Slots) of the shard's decided log.
	Digest [32]byte
}

// anchorPrefix tags anchor transactions; payloads are human-readable so
// anchor chains read sensibly in dumps and CI greps.
const anchorPrefix = "anchor|"

// Encode renders the anchor as its canonical transaction payload:
// "anchor|s=<shard>|e=<epoch>|k=<slots>|d=<hex digest>".
func (a Anchor) Encode() []byte {
	return []byte(fmt.Sprintf("%ss=%d|e=%d|k=%d|d=%s",
		anchorPrefix, a.Shard, a.Epoch, a.Slots, hex.EncodeToString(a.Digest[:])))
}

// DecodeAnchor parses a transaction payload as an anchor commitment; ok is
// false for ordinary (non-anchor) transactions and for anything but the
// exact bytes Encode produces (a sign, a leading zero, upper-case hex or
// trailing bytes make a malformed anchor, not another spelling of one). The
// fold uses it to pick the anchor transactions out of the anchor cluster's
// decided blocks.
func DecodeAnchor(tx []byte) (Anchor, bool) {
	var a Anchor
	var digest string
	n, err := fmt.Sscanf(string(tx), anchorPrefix+"s=%d|e=%d|k=%d|d=%s",
		&a.Shard, &a.Epoch, &a.Slots, &digest)
	if err != nil || n != 4 {
		return Anchor{}, false
	}
	raw, err := hex.DecodeString(digest)
	if err != nil || len(raw) != len(a.Digest) {
		return Anchor{}, false
	}
	copy(a.Digest[:], raw)
	if a.Shard < 0 || a.Epoch < 1 || a.Slots < 1 || !bytes.Equal(a.Encode(), tx) {
		return Anchor{}, false
	}
	return a, true
}
