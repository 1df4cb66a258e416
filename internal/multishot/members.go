package multishot

import "tetrabft/internal/types"

// memberIndex maps a sender's NodeID to its position in the membership: the
// index of its bit in every vote tally and view-change set, and the one test
// of whether a sender is a member at all. The threshold system's members are
// 0..n−1 and index themselves, a bounds check with no lookup. Other systems
// (Slices) name arbitrary IDs and keep a map. A forged sender — negative,
// huge, or between two members — misses either way.
type memberIndex struct {
	n   int
	idx map[types.NodeID]int // nil when members are exactly 0..n−1
}

func newMemberIndex(members []types.NodeID) memberIndex {
	ix := memberIndex{n: len(members)}
	for i, m := range members {
		if m == types.NodeID(i) {
			continue
		}
		ix.idx = make(map[types.NodeID]int, len(members))
		for j, m := range members {
			ix.idx[m] = j
		}
		break
	}
	return ix
}

// of returns id's position in the membership, or false for a non-member.
func (ix *memberIndex) of(id types.NodeID) (int, bool) {
	if ix.idx == nil {
		return int(id), uint(id) < uint(ix.n)
	}
	pos, ok := ix.idx[id]
	return pos, ok
}
