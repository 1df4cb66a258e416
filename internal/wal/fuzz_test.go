package wal

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"tetrabft/internal/core"
	"tetrabft/internal/multishot"
	"tetrabft/internal/types"
)

// FuzzLoad hardens the snapshot read path. Whatever bytes sit in state.bin
// (the input as is, and the input framed with a valid checksum so the
// decoder sees it), WAL.Load and MultiWAL.Load never panic, every error
// they return is ErrCorrupt, and a state they accept, written back by
// Persist, loads back equal.
func FuzzLoad(f *testing.F) {
	var votes core.VoteState
	votes.Record(1, 2, "x")
	seeds := []interface{ MarshalBinary() ([]byte, error) }{
		core.PersistentState{View: 7, HighestVC: 8, Votes: core.VoteState{
			Vote1: types.Vote(7, "abc"), Vote2: types.Vote(6, "abc"),
			Vote3: types.Vote(6, "abc"), Vote4: types.Vote(5, "abc"),
		}},
		multishot.PersistentState{
			Finalized: 5,
			FinalHead: types.Block{Slot: 5}.ID(),
			Slots: []multishot.SlotPersist{
				{Slot: 6, View: 2, HighestVC: 3, Votes: votes},
				{Slot: 7},
			},
		},
	}
	for _, s := range seeds {
		data, err := s.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte{0xFF, 0xFE, 0x01})
	f.Add([]byte{})

	dir := f.TempDir()
	path := filepath.Join(dir, "state.bin")
	single, err := Open(dir)
	if err != nil {
		f.Fatal(err)
	}
	multi, err := OpenMulti(dir)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		raw := func() error { return os.WriteFile(path, data, 0o644) }
		framed := func() error { return writeSnapshot(path, data) }
		for _, write := range []func() error{raw, framed} {
			checkLoad(t, write, single)
			checkLoad(t, write, multi)
		}
	})
}

// checkLoad writes state.bin with write and holds store's Load to
// FuzzLoad's guarantees.
func checkLoad[S any](t *testing.T, write func() error, store interface {
	Persist(S) error
	Load() (S, bool, error)
}) {
	t.Helper()
	if err := write(); err != nil {
		t.Fatal(err)
	}
	state, found, err := store.Load()
	if err != nil {
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Load error is not ErrCorrupt: %v", err)
		}
		return
	}
	if !found {
		t.Fatal("Load found no snapshot in a written state.bin")
	}
	if err := store.Persist(state); err != nil {
		t.Fatal(err)
	}
	again, found, err := store.Load()
	if err != nil || !found || !reflect.DeepEqual(again, state) {
		t.Fatalf("persisted state loads back as %+v (found %v, err %v), want %+v", again, found, err, state)
	}
}
