package quorum

import (
	"testing"
	"testing/quick"

	"tetrabft/internal/types"
)

func TestThresholdValidation(t *testing.T) {
	tests := []struct {
		n, f    int
		wantErr bool
	}{
		{n: 1, f: 0},
		{n: 4, f: 1},
		{n: 7, f: 2},
		{n: 10, f: 3},
		{n: 3, f: 1, wantErr: true},  // 3f = n
		{n: 4, f: 2, wantErr: true},  // 3f > n
		{n: 0, f: 0, wantErr: true},  // no nodes
		{n: 4, f: -1, wantErr: true}, // negative f
	}
	for _, tt := range tests {
		_, err := NewThresholdNF(tt.n, tt.f)
		if (err != nil) != tt.wantErr {
			t.Errorf("NewThresholdNF(%d, %d) err=%v, wantErr=%v", tt.n, tt.f, err, tt.wantErr)
		}
	}
}

func TestThresholdMaxFaults(t *testing.T) {
	tests := []struct {
		n, wantF int
	}{
		{1, 0}, {2, 0}, {3, 0}, {4, 1}, {6, 1}, {7, 2}, {10, 3}, {100, 33},
	}
	for _, tt := range tests {
		sys, err := NewThreshold(tt.n)
		if err != nil {
			t.Fatalf("NewThreshold(%d): %v", tt.n, err)
		}
		if sys.F() != tt.wantF {
			t.Errorf("NewThreshold(%d).F() = %d, want %d", tt.n, sys.F(), tt.wantF)
		}
	}
}

func TestThresholdQuorumAndBlocking(t *testing.T) {
	sys := MustThreshold(4) // f = 1, quorum = 3, blocking = 2
	if sys.IsQuorum(NewSet(0, 1)) {
		t.Error("2 of 4 counted as a quorum")
	}
	if !sys.IsQuorum(NewSet(0, 1, 2)) {
		t.Error("3 of 4 not counted as a quorum")
	}
	if sys.IsBlocking(0, NewSet(3)) {
		t.Error("1 of 4 counted as blocking")
	}
	if !sys.IsBlocking(0, NewSet(2, 3)) {
		t.Error("2 of 4 not counted as blocking")
	}
}

func TestThresholdIgnoresForeignIDs(t *testing.T) {
	sys := MustThreshold(4)
	forged := NewSet(0, 1, 99, -5) // two real members plus junk
	if sys.IsQuorum(forged) {
		t.Error("forged identities inflated a quorum")
	}
	if forged.Len() != 4 {
		t.Fatalf("set length = %d, want 4", forged.Len())
	}
}

// TestQuorumIntersection checks the property every safety proof in the paper
// leans on: two quorums intersect in at least one well-behaved node, i.e.
// |Q1 ∩ Q2| ≥ f+1 for minimal quorums.
func TestQuorumIntersection(t *testing.T) {
	f := func(nRaw, fRaw uint8) bool {
		n := int(nRaw%30) + 1
		fault := int(fRaw) % n
		sys, err := NewThresholdNF(n, fault)
		if err != nil {
			return true // invalid parameter combination, skip
		}
		// Minimal quorums: the first n-f nodes and the last n-f nodes.
		q1 := 0
		q2 := 0
		for i := 0; i < n; i++ {
			inQ1 := i < sys.QuorumSize()
			inQ2 := i >= n-sys.QuorumSize()
			if inQ1 && inQ2 {
				q1++
			}
			_ = q2
		}
		// Overlap of two minimal quorums = 2(n-f) - n = n - 2f ≥ f+1.
		return q1 >= sys.BlockingSize()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuorumMeetsBlocking checks that a quorum and a blocking set always
// intersect (used in e.g. Lemma 4 of the paper).
func TestQuorumMeetsBlocking(t *testing.T) {
	f := func(nRaw, fRaw uint8) bool {
		n := int(nRaw%30) + 1
		fault := int(fRaw) % n
		sys, err := NewThresholdNF(n, fault)
		if err != nil {
			return true
		}
		// Disjoint quorum and blocking set would need (n-f) + (f+1) ≤ n nodes.
		return sys.QuorumSize()+sys.BlockingSize() > n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSlicesValidation(t *testing.T) {
	if _, err := NewSlices(nil); err == nil {
		t.Error("empty system accepted")
	}
	if _, err := NewSlices(map[types.NodeID][]Set{0: nil}); err == nil {
		t.Error("node without slices accepted")
	}
	if _, err := NewSlices(map[types.NodeID][]Set{0: {NewSet()}}); err == nil {
		t.Error("empty slice accepted")
	}
	if _, err := NewSlices(map[types.NodeID][]Set{0: {NewSet(9)}}); err == nil {
		t.Error("slice naming a non-member accepted")
	}
}

// TestSlicesValidationTextIsStable builds systems with two faults of one
// kind each, many times over, and pins the one text each must report: the
// lowest faulty node, and in a slice its lowest non-member. Map iteration
// order must not pick the text.
func TestSlicesValidationTextIsStable(t *testing.T) {
	for _, tc := range []struct {
		name   string
		slices map[types.NodeID][]Set
		want   string
	}{
		{"no slices", map[types.NodeID][]Set{1: {NewSet(1, 2, 3)}, 2: nil, 3: nil, 4: {NewSet(1, 2)}},
			"quorum: node 2 has no slices"},
		{"empty slice", map[types.NodeID][]Set{1: {NewSet(1, 2)}, 2: {NewSet(1, 2), NewSet()}, 3: {NewSet()}, 4: {NewSet()}},
			"quorum: node 2 has an empty slice"},
		{"non-member", map[types.NodeID][]Set{1: {NewSet(1, 2, 9)}, 2: {NewSet(1, 2, 8)}, 3: {NewSet(1, 2, 3)}},
			"quorum: node 1's slice mentions non-member 9"},
		{"non-members in one slice", map[types.NodeID][]Set{1: {NewSet(1)}, 2: {NewSet(1, 2), NewSet(12, 2, 7, 30, 11)}},
			"quorum: node 2's slice mentions non-member 7"},
	} {
		for i := 0; i < 50; i++ {
			_, err := NewSlices(tc.slices)
			if err == nil || err.Error() != tc.want {
				t.Fatalf("%s, construction %d: error %v, want %q", tc.name, i, err, tc.want)
			}
		}
	}
}

func TestSlicesQuorum(t *testing.T) {
	// 4 nodes, each node's only slice is any 3-of-4 superset containing it:
	// model the tier-1 ring {0,1,2,3} where each trusts 2 specific peers.
	slices := map[types.NodeID][]Set{
		0: {NewSet(0, 1, 2)},
		1: {NewSet(1, 2, 3)},
		2: {NewSet(2, 3, 0)},
		3: {NewSet(3, 0, 1)},
	}
	sys, err := NewSlices(slices)
	if err != nil {
		t.Fatal(err)
	}
	if !sys.IsQuorum(NewSet(0, 1, 2, 3)) {
		t.Error("full membership is not a quorum")
	}
	if sys.IsQuorum(NewSet(0, 1, 2)) {
		// node 1 needs {1,2,3}: 3 missing, node 2 needs {2,3,0}: 3 missing,
		// pruning empties the set.
		t.Error("{0,1,2} should not be a quorum in the ring system")
	}
	if sys.IsQuorum(NewSet()) {
		t.Error("empty set is a quorum")
	}
}

func TestSlicesBlocking(t *testing.T) {
	slices := map[types.NodeID][]Set{
		0: {NewSet(1, 2), NewSet(2, 3)},
		1: {NewSet(0, 1, 2, 3)},
		2: {NewSet(0, 1, 2, 3)},
		3: {NewSet(0, 1, 2, 3)},
	}
	sys, err := NewSlices(slices)
	if err != nil {
		t.Fatal(err)
	}
	// {2} intersects both of node 0's slices.
	if !sys.IsBlocking(0, NewSet(2)) {
		t.Error("{2} should block node 0")
	}
	// {1} misses slice {2,3}.
	if sys.IsBlocking(0, NewSet(1)) {
		t.Error("{1} should not block node 0")
	}
	// Unknown observer is never blocked.
	if sys.IsBlocking(42, NewSet(0, 1, 2, 3)) {
		t.Error("unknown observer reported blocked")
	}
}

// TestThresholdSlicesEquivalence cross-checks the heterogeneous machinery
// against the threshold system it generalizes, over all subsets of 4 nodes.
func TestThresholdSlicesEquivalence(t *testing.T) {
	const n = 4
	thr := MustThreshold(n)
	het, err := ThresholdSlices(n)
	if err != nil {
		t.Fatal(err)
	}
	for mask := 0; mask < 1<<n; mask++ {
		set := NewSet()
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				set.Add(types.NodeID(i))
			}
		}
		if thr.IsQuorum(set) != het.IsQuorum(set) {
			t.Errorf("IsQuorum mismatch on %v: threshold=%v slices=%v",
				set.Sorted(), thr.IsQuorum(set), het.IsQuorum(set))
		}
		for obs := types.NodeID(0); obs < n; obs++ {
			if thr.IsBlocking(obs, set) != het.IsBlocking(obs, set) {
				t.Errorf("IsBlocking(%d) mismatch on %v", obs, set.Sorted())
			}
		}
	}
}

func TestSetSorted(t *testing.T) {
	s := NewSet(3, 1, 2, 0)
	got := s.Sorted()
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("Sorted() not ascending: %v", got)
		}
	}
	if len(got) != 4 {
		t.Fatalf("Sorted() length = %d, want 4", len(got))
	}
}

func TestMustThresholdPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustThreshold(0) did not panic")
		}
	}()
	MustThreshold(0)
}

// TestTally: a key's set holds each distinct sender once, keys never share
// a set, and the returned set is the one the tally keeps, so its quorum and
// blocking answers follow every later Add.
func TestTally(t *testing.T) {
	type key struct {
		phase uint8
		val   types.Value
	}
	qs := MustThreshold(4) // quorum 3, blocking 2
	tests := []struct {
		name         string
		adds         []types.NodeID // senders for key{1, "a"}, in order
		others       []types.NodeID // senders for key{2, "a"}, interleaved
		wantLen      int
		wantQuorum   bool
		wantBlocking bool
	}{
		{name: "one sender", adds: []types.NodeID{0}, wantLen: 1},
		{name: "repeats count once", adds: []types.NodeID{2, 2, 2}, wantLen: 1},
		{name: "blocking set", adds: []types.NodeID{0, 3}, wantLen: 2, wantBlocking: true},
		{name: "quorum", adds: []types.NodeID{0, 1, 0, 3}, wantLen: 3, wantQuorum: true, wantBlocking: true},
		{name: "keys stay apart", adds: []types.NodeID{1}, others: []types.NodeID{0, 2, 3}, wantLen: 1},
		{name: "foreign IDs never count", adds: []types.NodeID{0, 9, -1}, wantLen: 3},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			tally := make(Tally[key])
			var set Set
			for i := range max(len(tt.adds), len(tt.others)) {
				if i < len(tt.adds) {
					set = tally.Add(key{1, "a"}, tt.adds[i])
				}
				if i < len(tt.others) {
					tally.Add(key{2, "a"}, tt.others[i])
				}
			}
			if got := tally[key{1, "a"}]; got.Len() != tt.wantLen || set.Len() != tt.wantLen {
				t.Fatalf("kept set has %d senders and returned set %d, want %d", got.Len(), set.Len(), tt.wantLen)
			}
			if got := tally[key{2, "a"}].Len(); got != len(tt.others) {
				t.Errorf("the other key holds %d senders, want %d", got, len(tt.others))
			}
			if got := qs.IsQuorum(set); got != tt.wantQuorum {
				t.Errorf("IsQuorum = %v, want %v", got, tt.wantQuorum)
			}
			if got := qs.IsBlocking(0, set); got != tt.wantBlocking {
				t.Errorf("IsBlocking = %v, want %v", got, tt.wantBlocking)
			}
		})
	}
}
