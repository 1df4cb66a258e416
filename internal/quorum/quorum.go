// Package quorum defines the quorum systems used by every protocol in the
// repository.
//
// The paper's homogeneous model calls any set of n−f or more nodes a quorum
// and any set of f+1 or more nodes a blocking set (Section 1.1), assuming
// 3f < n. That is the Threshold system. The package also provides a
// heterogeneous, FBA-style slice system (Section 1.2 item 2 and the
// Section 7 observation that TetraBFT transfers to heterogeneous trust):
// each node declares quorum slices; a quorum is a set containing a slice of
// each of its members, and a set blocks a node if it intersects every one of
// that node's slices.
package quorum

import (
	"fmt"
	"sort"

	"tetrabft/internal/types"
)

// Set is a set of node identities.
type Set map[types.NodeID]struct{}

// NewSet builds a Set from the given nodes.
func NewSet(nodes ...types.NodeID) Set {
	s := make(Set, len(nodes))
	for _, n := range nodes {
		s[n] = struct{}{}
	}
	return s
}

// Add inserts a node.
func (s Set) Add(n types.NodeID) { s[n] = struct{}{} }

// Has reports membership.
func (s Set) Has(n types.NodeID) bool {
	_, ok := s[n]
	return ok
}

// Len returns the cardinality.
func (s Set) Len() int { return len(s) }

// Sorted returns the members in ascending order (for deterministic output).
func (s Set) Sorted() []types.NodeID {
	out := make([]types.NodeID, 0, len(s))
	for n := range s {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Tally gathers the distinct senders behind each key: a (phase, view, value)
// vote bucket, the view-change calls for one view, the finality claims for
// one block. Whether a key's set is a quorum or a blocking set is a System's
// question; every protocol asks it of a Tally's sets.
type Tally[K comparable] map[K]Set

// Add records from as a sender for k, making k's set on first use, and
// returns that set.
func (t Tally[K]) Add(k K, from types.NodeID) Set {
	s := t[k]
	if s == nil {
		s = NewSet()
		t[k] = s
	}
	s.Add(from)
	return s
}

// System answers quorum and blocking-set questions for a fixed membership.
type System interface {
	// Members lists every node in ascending order.
	Members() []types.NodeID
	// IsQuorum reports whether set contains a quorum.
	IsQuorum(set Set) bool
	// IsBlocking reports whether set is a blocking set from observer's
	// point of view. In the threshold system the observer is irrelevant.
	IsBlocking(observer types.NodeID, set Set) bool
}

// Threshold is the classic n ≥ 3f+1 threshold system: quorums have at least
// n−f members and blocking sets at least f+1.
type Threshold struct {
	n, f int
}

var _ System = Threshold{}

// NewThreshold builds a threshold system for n nodes tolerating the maximum
// f = ⌊(n−1)/3⌋ Byzantine faults.
func NewThreshold(n int) (Threshold, error) {
	return NewThresholdNF(n, (n-1)/3)
}

// NewThresholdNF builds a threshold system with an explicit fault budget.
// It enforces the paper's resilience requirement 3f < n (and n ≥ 1, f ≥ 0).
func NewThresholdNF(n, f int) (Threshold, error) {
	if n < 1 || f < 0 || 3*f >= n {
		return Threshold{}, fmt.Errorf("quorum: invalid threshold parameters n=%d f=%d (need n ≥ 1, f ≥ 0, 3f < n)", n, f)
	}
	return Threshold{n: n, f: f}, nil
}

// MustThreshold is NewThreshold for static configurations in tests and
// examples; it panics on invalid n.
func MustThreshold(n int) Threshold {
	t, err := NewThreshold(n)
	if err != nil {
		panic(err)
	}
	return t
}

// N returns the number of nodes.
func (t Threshold) N() int { return t.n }

// F returns the fault budget.
func (t Threshold) F() int { return t.f }

// QuorumSize returns n−f, the minimum quorum cardinality.
func (t Threshold) QuorumSize() int { return t.n - t.f }

// BlockingSize returns f+1, the minimum blocking-set cardinality.
func (t Threshold) BlockingSize() int { return t.f + 1 }

// Members implements System.
func (t Threshold) Members() []types.NodeID {
	out := make([]types.NodeID, t.n)
	for i := range out {
		out[i] = types.NodeID(i)
	}
	return out
}

// IsQuorum implements System.
func (t Threshold) IsQuorum(set Set) bool { return t.countMembers(set) >= t.QuorumSize() }

// IsBlocking implements System.
func (t Threshold) IsBlocking(_ types.NodeID, set Set) bool {
	return t.countMembers(set) >= t.BlockingSize()
}

// countMembers counts only identities inside the membership, so stray or
// forged IDs can never inflate a tally.
func (t Threshold) countMembers(set Set) int {
	count := 0
	for n := range set {
		if int(n) >= 0 && int(n) < t.n {
			count++
		}
	}
	return count
}

// Slices is a heterogeneous (FBA-style) quorum system: each node lists its
// quorum slices.
type Slices struct {
	members []types.NodeID
	slices  map[types.NodeID][]Set
}

var _ System = (*Slices)(nil)

// NewSlices builds a heterogeneous system. Every node must declare at least
// one non-empty slice; slices may only mention members. A system with
// several faults reports the first one met checking nodes in ascending
// order, each node's slices in order and each slice's members in ascending
// order, so the error text does not depend on map iteration.
func NewSlices(slices map[types.NodeID][]Set) (*Slices, error) {
	if len(slices) == 0 {
		return nil, fmt.Errorf("quorum: empty slice system")
	}
	membership := make(Set, len(slices))
	for n := range slices {
		membership.Add(n)
	}
	members := membership.Sorted()
	for _, n := range members {
		ss := slices[n]
		if len(ss) == 0 {
			return nil, fmt.Errorf("quorum: node %d has no slices", n)
		}
		for _, s := range ss {
			if s.Len() == 0 {
				return nil, fmt.Errorf("quorum: node %d has an empty slice", n)
			}
			for _, m := range s.Sorted() {
				if !membership.Has(m) {
					return nil, fmt.Errorf("quorum: node %d's slice mentions non-member %d", n, m)
				}
			}
		}
	}
	return &Slices{members: members, slices: slices}, nil
}

// Members implements System.
func (s *Slices) Members() []types.NodeID {
	out := make([]types.NodeID, len(s.members))
	copy(out, s.members)
	return out
}

// IsQuorum implements System: set contains a quorum if the largest subset U
// of set in which every member has a slice inside U is non-empty. The
// greatest such subset is computed by iteratively discarding members with no
// satisfied slice (the standard FBA quorum-pruning construction).
func (s *Slices) IsQuorum(set Set) bool {
	u := make(Set, len(set))
	for n := range set {
		if _, ok := s.slices[n]; ok {
			u.Add(n)
		}
	}
	for {
		removed := false
		for n := range u {
			if !s.hasSliceWithin(n, u) {
				delete(u, n)
				removed = true
			}
		}
		if !removed {
			return u.Len() > 0
		}
	}
}

// IsBlocking implements System: set blocks observer if it intersects every
// slice of observer.
func (s *Slices) IsBlocking(observer types.NodeID, set Set) bool {
	ss, ok := s.slices[observer]
	if !ok {
		return false
	}
	for _, slice := range ss {
		if !intersects(slice, set) {
			return false
		}
	}
	return true
}

func (s *Slices) hasSliceWithin(n types.NodeID, u Set) bool {
	for _, slice := range s.slices[n] {
		if within(slice, u) {
			return true
		}
	}
	return false
}

func within(sub, super Set) bool {
	for n := range sub {
		if !super.Has(n) {
			return false
		}
	}
	return true
}

func intersects(a, b Set) bool {
	// Iterate over the smaller set.
	if b.Len() < a.Len() {
		a, b = b, a
	}
	for n := range a {
		if b.Has(n) {
			return true
		}
	}
	return false
}

// ThresholdSlices builds a Slices system equivalent to the n ≥ 3f+1
// threshold system: every node's slices are all subsets of size n−f. Used
// by tests to confirm the heterogeneous machinery generalizes the
// homogeneous one (paper Section 1.2).
func ThresholdSlices(n int) (*Slices, error) {
	t, err := NewThreshold(n)
	if err != nil {
		return nil, err
	}
	members := t.Members()
	combos := combinations(members, t.QuorumSize())
	slices := make(map[types.NodeID][]Set, n)
	for _, m := range members {
		slices[m] = combos
	}
	return NewSlices(slices)
}

func combinations(members []types.NodeID, k int) []Set {
	var out []Set
	var rec func(start int, cur []types.NodeID)
	rec = func(start int, cur []types.NodeID) {
		if len(cur) == k {
			out = append(out, NewSet(cur...))
			return
		}
		for i := start; i < len(members); i++ {
			rec(i+1, append(cur, members[i]))
		}
	}
	rec(0, nil)
	return out
}
