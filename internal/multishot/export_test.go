package multishot

import "tetrabft/internal/types"

// countLookups counts the block-table lookups of every node, by the ID
// looked up, until the returned function stops the count. Counts do not
// nest.
func countLookups(count func(types.BlockID)) (stop func()) {
	looked = count
	return func() { looked = nil }
}

// highestChainStart is chainStart by ID: the highest slot above the
// finalized head that starts a notarized 4-chain, and the block starting it.
func (n *Node) highestChainStart() (types.Slot, types.BlockID, bool) {
	k, head := n.chainStart()
	if head == nil {
		return 0, types.ZeroBlockID, false
	}
	return k, head.id, true
}

// chainAt is chainHead by ID.
func (n *Node) chainAt(k types.Slot) (types.BlockID, bool) {
	if head := n.chainHead(k); head != nil {
		return head.id, true
	}
	return types.ZeroBlockID, false
}
