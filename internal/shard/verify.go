package shard

import (
	"bytes"
	"errors"
	"fmt"

	"tetrabft/internal/types"
)

// VerifyAnchors checks the cross-shard consistency invariant at result-fold
// time: every anchor transaction on the anchor cluster's decided log must be
// well-formed, name a known shard, advance that shard's epoch by exactly one,
// and carry the digest of a prefix the shard actually decided. shardChains
// holds each shard's reference finalized chain, indexed by shard. An honest
// shard anchors ever longer prefixes, so its digest only runs forward: a
// shorter claim than the last starts it over.
//
// It returns the per-shard committed-epoch counts and the longest anchored
// prefix per shard (both indexed by shard), or the first violation found. A
// violation means a shard's advertised history diverged from its decided log
// — the sharded analogue of an agreement violation, and the engines report
// it as one — except an epoch gap, which is ErrAnchorLost.
func VerifyAnchors(anchorChain []types.Block, shardChains [][]types.Block) (epochs, anchoredSlots []int64, err error) {
	epochs = make([]int64, len(shardChains))
	anchoredSlots = make([]int64, len(shardChains))
	digests := make([]*Digest, len(shardChains))
	for _, b := range anchorChain {
		for _, tx := range b.Txs {
			if !bytes.HasPrefix(tx, []byte(anchorPrefix)) {
				continue // ordinary transaction sharing the anchor cluster
			}
			a, ok := DecodeAnchor(tx)
			if !ok {
				return nil, nil, fmt.Errorf("shard: anchor slot %d carries a malformed anchor transaction %q", b.Slot, tx)
			}
			if a.Shard >= len(shardChains) {
				return nil, nil, fmt.Errorf("shard: anchor names unknown shard %d (have %d)", a.Shard, len(shardChains))
			}
			if a.Epoch != epochs[a.Shard]+1 {
				err := fmt.Errorf("shard: shard %d anchored epoch %d after epoch %d (epochs must advance by one)", a.Shard, a.Epoch, epochs[a.Shard])
				if a.Epoch > epochs[a.Shard]+1 {
					err = lostAnchor{err}
				}
				return nil, nil, err
			}
			chain := shardChains[a.Shard]
			if a.Slots > int64(len(chain)) {
				return nil, nil, fmt.Errorf("shard: shard %d anchored %d slots but decided only %d", a.Shard, a.Slots, len(chain))
			}
			d := digests[a.Shard]
			if d == nil || int64(d.Len()) > a.Slots {
				d = NewDigest()
				digests[a.Shard] = d
			}
			for int64(d.Len()) < a.Slots {
				d.Add(chain[d.Len()])
			}
			if d.Sum() != a.Digest {
				return nil, nil, fmt.Errorf("shard: shard %d epoch %d digest mismatch over %d slots (anchored history diverges from the decided log)", a.Shard, a.Epoch, a.Slots)
			}
			epochs[a.Shard] = a.Epoch
			anchoredSlots[a.Shard] = max(anchoredSlots[a.Shard], a.Slots)
		}
	}
	return epochs, anchoredSlots, nil
}

// ErrAnchorLost tags VerifyAnchors' verdict on an epoch gap: a shard's
// anchor of epoch e committed while its last committed epoch is below e−1.
// A shard submits its anchors in epoch order, so the ones between never
// reached the anchor log — drawn, say, into an anchor-cluster proposal that
// never finalized — and no history diverged.
var ErrAnchorLost = errors.New("shard: anchor lost")

// lostAnchor is an epoch gap's verdict: its own text, tagged ErrAnchorLost.
type lostAnchor struct{ err error }

func (e lostAnchor) Error() string        { return e.err.Error() }
func (e lostAnchor) Is(target error) bool { return target == ErrAnchorLost }
