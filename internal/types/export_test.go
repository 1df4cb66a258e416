package types

import "sync/atomic"

// CountHashes counts Block.ID calls until the returned function stops the
// count and reports it. Counts do not nest.
func CountHashes() (stop func() int) {
	var n atomic.Int64
	hashed = func() { n.Add(1) }
	return func() int {
		hashed = nil
		return int(n.Load())
	}
}
