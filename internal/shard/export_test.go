package shard

import "tetrabft/internal/types"

// CountHashes hands count every block a Digest hashes until the returned
// restore is called.
func CountHashes(count func(types.Block)) (restore func()) {
	orig := blockID
	blockID = func(b types.Block) types.BlockID {
		count(b)
		return orig(b)
	}
	return func() { blockID = orig }
}
