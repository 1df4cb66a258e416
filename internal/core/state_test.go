package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"tetrabft/internal/types"
)

func TestRecordHighestAndPrev(t *testing.T) {
	var s VoteState
	s.Record(2, 1, "a")
	if s.Vote2 != types.Vote(1, "a") || s.PrevVote2.Valid {
		t.Fatalf("after first vote: %+v", s)
	}
	s.Record(2, 2, "a") // same value: highest advances, prev stays empty
	if s.Vote2 != types.Vote(2, "a") || s.PrevVote2.Valid {
		t.Fatalf("after same-value vote: %+v", s)
	}
	s.Record(2, 3, "b") // new value: old highest becomes prev
	if s.Vote2 != types.Vote(3, "b") || s.PrevVote2 != types.Vote(2, "a") {
		t.Fatalf("after value switch: %+v", s)
	}
	s.Record(2, 4, "a") // switch back: prev must be the "b" vote, not stale "a"
	if s.Vote2 != types.Vote(4, "a") || s.PrevVote2 != types.Vote(3, "b") {
		t.Fatalf("after switch back: %+v", s)
	}
}

func TestRecordPhase3And4KeepOnlyHighest(t *testing.T) {
	var s VoteState
	s.Record(3, 1, "a")
	s.Record(3, 2, "b")
	if s.Vote3 != types.Vote(2, "b") {
		t.Errorf("Vote3 = %v", s.Vote3)
	}
	s.Record(4, 5, "c")
	if s.Vote4 != types.Vote(5, "c") {
		t.Errorf("Vote4 = %v", s.Vote4)
	}
}

func TestRecordPanicsOnBadPhase(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Record(0, ...) did not panic")
		}
	}()
	var s VoteState
	s.Record(0, 1, "a")
}

// TestQuickRecordMatchesModel replays random strictly-increasing vote
// sequences against a naive model: highest = latest vote; prev = the
// latest vote whose value differs from the highest vote's value.
func TestQuickRecordMatchesModel(t *testing.T) {
	f := func(seed int64, steps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var s VoteState
		var history []types.VoteRef
		view := types.View(0)
		vals := []types.Value{"a", "b", "c"}
		for i := 0; i < int(steps%40)+1; i++ {
			view += types.View(rng.Intn(3) + 1)
			val := vals[rng.Intn(len(vals))]
			s.Record(1, view, val)
			history = append(history, types.Vote(view, val))

			wantHighest := history[len(history)-1]
			var wantPrev types.VoteRef
			for _, h := range history {
				if h.Val != wantHighest.Val && (!wantPrev.Valid || h.View > wantPrev.View) {
					wantPrev = h
				}
			}
			if s.Vote1 != wantHighest || s.PrevVote1 != wantPrev {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPersistentStateRoundTrip(t *testing.T) {
	states := []PersistentState{
		{},
		{View: 3, HighestVC: 4},
		{
			View:      7,
			HighestVC: 8,
			Votes: VoteState{
				Vote1:     types.Vote(7, "a"),
				PrevVote1: types.Vote(5, "b"),
				Vote2:     types.Vote(6, "a"),
				PrevVote2: types.Vote(4, "c"),
				Vote3:     types.Vote(6, "a"),
				Vote4:     types.Vote(5, "a"),
			},
		},
	}
	for _, want := range states {
		data, err := want.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var got PersistentState
		if err := got.UnmarshalBinary(data); err != nil {
			t.Fatalf("unmarshal %+v: %v", want, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("round trip: got %+v want %+v", got, want)
		}
	}
}

func TestPersistentStateRejectsCorruption(t *testing.T) {
	st := PersistentState{View: 3, Votes: VoteState{Vote1: types.Vote(2, "abc")}}
	data, err := st.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(data); cut++ {
		var got PersistentState
		if err := got.UnmarshalBinary(data[:cut]); err == nil {
			t.Errorf("truncation to %d bytes decoded successfully", cut)
		}
	}
	var got PersistentState
	if err := got.UnmarshalBinary(append(data, 0)); err == nil {
		t.Error("trailing byte accepted")
	}
}

// TestQuickPersistentStateRoundTrip fuzzes the persistence encoding.
func TestQuickPersistentStateRoundTrip(t *testing.T) {
	f := func(view, vc int16, v1ok bool, v1 int16, s1 string, v4ok bool, v4 int16, s4 string) bool {
		want := PersistentState{View: types.View(abs(view)), HighestVC: types.View(abs(vc))}
		if v1ok {
			want.Votes.Vote1 = types.Vote(types.View(abs(v1)), types.Value(s1))
		}
		if v4ok {
			want.Votes.Vote4 = types.Vote(types.View(abs(v4)), types.Value(s4))
		}
		data, err := want.MarshalBinary()
		if err != nil {
			return false
		}
		// One exactly sized allocation: the analytic size is the encoded size.
		if want.PersistentSize() != len(data) || cap(data) != len(data) {
			return false
		}
		var got PersistentState
		if err := got.UnmarshalBinary(data); err != nil {
			return false
		}
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPersistentSizeIsConstant verifies the paper's constant-storage claim
// at the state level: the persistent footprint is bounded regardless of how
// many views have passed, because only 6 vote refs are retained.
func TestPersistentSizeIsConstant(t *testing.T) {
	var s VoteState
	maxSize := 0
	for v := types.View(1); v <= 1000; v++ {
		val := types.Value("value-A")
		if v%2 == 0 {
			val = "value-B"
		}
		for phase := uint8(1); phase <= 4; phase++ {
			s.Record(phase, v, val)
		}
		size := (PersistentState{View: v, HighestVC: v, Votes: s}).PersistentSize()
		if size > maxSize {
			maxSize = size
		}
	}
	if maxSize > 128 {
		t.Errorf("persistent footprint grew to %d bytes over 1000 views; want bounded well under 128", maxSize)
	}
}

func abs(v int16) int64 {
	if v < 0 {
		return -int64(v)
	}
	return int64(v)
}

func TestSuggestAndProofRendering(t *testing.T) {
	s := VoteState{
		Vote1:     types.Vote(3, "a"),
		PrevVote1: types.Vote(1, "b"),
		Vote2:     types.Vote(2, "a"),
		PrevVote2: types.Vote(1, "c"),
		Vote3:     types.Vote(2, "a"),
		Vote4:     types.Vote(1, "a"),
	}
	sg := s.Suggest(5)
	if sg.View != 5 || sg.Vote2 != s.Vote2 || sg.PrevVote2 != s.PrevVote2 || sg.Vote3 != s.Vote3 {
		t.Errorf("Suggest(5) = %+v", sg)
	}
	pf := s.Proof(6)
	if pf.View != 6 || pf.Vote1 != s.Vote1 || pf.PrevVote1 != s.PrevVote1 || pf.Vote4 != s.Vote4 {
		t.Errorf("Proof(6) = %+v", pf)
	}
}
