package wal

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"tetrabft/internal/core"
	"tetrabft/internal/multishot"
	"tetrabft/internal/types"
)

func TestPersistLoadRoundTrip(t *testing.T) {
	w, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, found, err := w.Load(); err != nil || found {
		t.Fatalf("fresh WAL: found=%v err=%v", found, err)
	}
	want := core.PersistentState{
		View:      7,
		HighestVC: 8,
		Votes: core.VoteState{
			Vote1: types.Vote(7, "abc"),
			Vote2: types.Vote(6, "abc"),
			Vote3: types.Vote(6, "abc"),
			Vote4: types.Vote(5, "abc"),
		},
	}
	if err := w.Persist(want); err != nil {
		t.Fatal(err)
	}
	got, found, err := w.Load()
	if err != nil || !found {
		t.Fatalf("Load: found=%v err=%v", found, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %+v want %+v", got, want)
	}
}

func TestSizeStaysConstantAcrossViews(t *testing.T) {
	w, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var maxSize int64
	var votes core.VoteState
	for v := types.View(1); v <= 200; v++ {
		val := types.Value("value-A")
		if v%2 == 0 {
			val = "value-B"
		}
		for phase := uint8(1); phase <= 4; phase++ {
			votes.Record(phase, v, val)
		}
		if err := w.Persist(core.PersistentState{View: v, HighestVC: v, Votes: votes}); err != nil {
			t.Fatal(err)
		}
		size, err := w.Size()
		if err != nil {
			t.Fatal(err)
		}
		if size > maxSize {
			maxSize = size
		}
	}
	if maxSize > 128 {
		t.Errorf("on-disk footprint grew to %d bytes over 200 views; Table 1 requires constant storage", maxSize)
	}
}

func TestCorruptSnapshotRejected(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Persist(core.PersistentState{View: 1}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "state.bin"), []byte{0xFF, 0xFE, 0x01}, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.Load(); err == nil {
		t.Error("corrupt snapshot loaded without error")
	}
}

func TestCrashRecoveryWithNode(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{ID: 1, Nodes: 4, InitialValue: "x", Persist: w}
	node, err := core.NewNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	env := &captureEnv{}
	node.Start(env)
	node.Deliver(env, 0, types.Proposal{View: 0, Val: "x"})
	if node.Halted() {
		t.Fatal("node halted with a healthy WAL")
	}

	// "Crash": rebuild from disk.
	state, found, err := w.Load()
	if err != nil || !found {
		t.Fatalf("Load after crash: found=%v err=%v", found, err)
	}
	restored, err := core.Restore(cfg, state)
	if err != nil {
		t.Fatal(err)
	}
	env2 := &captureEnv{}
	restored.Start(env2)
	restored.Deliver(env2, 0, types.Proposal{View: 0, Val: "y"})
	for _, m := range env2.broadcasts {
		if vm, ok := m.(types.VoteMsg); ok && vm.Phase == 1 {
			t.Fatalf("restored node double-voted: %v", vm)
		}
	}
}

// TestBitFlipRejected: flipping any byte of a valid snapshot must surface
// as ErrCorrupt on Load, not decode into different vote state.
func TestBitFlipRejected(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	state := core.PersistentState{
		View:      9,
		HighestVC: 9,
		Votes:     core.VoteState{Vote1: types.Vote(9, "abc"), Vote2: types.Vote(8, "abc")},
	}
	if err := w.Persist(state); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "state.bin")
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := range orig {
		bad := append([]byte{}, orig...)
		bad[i] ^= 0x40
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := w.Load(); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at byte %d: got err=%v, want ErrCorrupt", i, err)
		}
	}
}

// stores opens each kind of store in a directory, with one snapshot to
// persist and a load that reports only its error.
var stores = []struct {
	name string
	open func(dir string) (persist, load func() error, err error)
}{
	{"WAL", func(dir string) (func() error, func() error, error) {
		w, err := Open(dir)
		if err != nil {
			return nil, nil, err
		}
		return func() error { return w.Persist(core.PersistentState{View: 3, HighestVC: 4}) },
			func() error { _, _, err := w.Load(); return err }, nil
	}},
	{"MultiWAL", func(dir string) (func() error, func() error, error) {
		w, err := OpenMulti(dir)
		if err != nil {
			return nil, nil, err
		}
		st := multishot.PersistentState{Finalized: 2, FinalHead: types.Block{Slot: 2}.ID(),
			Slots: []multishot.SlotPersist{{Slot: 3, View: 1, HighestVC: 1}}}
		return func() error { return w.Persist(st) },
			func() error { _, _, err := w.Load(); return err }, nil
	}},
}

// TestTruncationRejected: every strict prefix of a snapshot is corrupt, for
// either kind of store.
func TestTruncationRejected(t *testing.T) {
	for _, s := range stores {
		dir := t.TempDir()
		persist, load, err := s.open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := persist(); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "state.bin")
		orig, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(orig); cut++ {
			if err := os.WriteFile(path, orig[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			if err := load(); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s truncated to %d bytes: got err=%v, want ErrCorrupt", s.name, cut, err)
			}
		}
	}
}

// TestDirectorySynced: opening a store syncs its directory once and every
// Persist syncs it again after the rename, so a returned Persist survives a
// power loss; a failed directory sync fails the Open or the Persist, which
// halts a node as any failed write does.
func TestDirectorySynced(t *testing.T) {
	orig := syncDir
	defer func() { syncDir = orig }()
	for _, s := range stores {
		dir := t.TempDir()
		var synced []string
		fail := false
		syncDir = func(d string) error {
			synced = append(synced, d)
			if fail {
				return errors.New("injected")
			}
			return orig(d)
		}
		persist, _, err := s.open(dir)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if err := persist(); err != nil {
				t.Fatal(err)
			}
		}
		if len(synced) != 4 {
			t.Errorf("%s: %d directory syncs for an open and 3 persists, want 4", s.name, len(synced))
		}
		for _, d := range synced {
			if d != dir {
				t.Errorf("%s: synced %s, want the store's directory %s", s.name, d, dir)
			}
		}
		fail = true
		if err := persist(); err == nil || !strings.HasPrefix(err.Error(), "wal: sync dir: ") {
			t.Errorf("%s: Persist with a failing directory sync returned %v, want a wal: sync dir error", s.name, err)
		}
		if _, _, err := s.open(t.TempDir()); err == nil || !strings.HasPrefix(err.Error(), "wal: sync dir: ") {
			t.Errorf("%s: Open with a failing directory sync returned %v, want a wal: sync dir error", s.name, err)
		}
	}
}

// TestCrashBetweenTempWriteAndRename: a crash after writing the temp file
// but before the rename must leave the previous snapshot intact — Load
// returns the old state, and the orphaned temp file is ignored.
func TestCrashBetweenTempWriteAndRename(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	oldState := core.PersistentState{View: 1, HighestVC: 1}
	if err := w.Persist(oldState); err != nil {
		t.Fatal(err)
	}
	// Simulate the crash: the next snapshot reached the temp path (possibly
	// torn) but the rename never happened.
	tmp := filepath.Join(dir, "state.bin.tmp")
	if err := os.WriteFile(tmp, []byte("torn half-written snapsh"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, found, err := w.Load()
	if err != nil || !found {
		t.Fatalf("Load after simulated crash: found=%v err=%v", found, err)
	}
	if !reflect.DeepEqual(got, oldState) {
		t.Errorf("recovered %+v, want the pre-crash state %+v", got, oldState)
	}
	// A subsequent Persist must overwrite the orphan and succeed.
	newState := core.PersistentState{View: 2, HighestVC: 2}
	if err := w.Persist(newState); err != nil {
		t.Fatal(err)
	}
	got, _, err = w.Load()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, newState) {
		t.Errorf("after recovery persist: got %+v, want %+v", got, newState)
	}
}

func TestMultiWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenMulti(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, found, err := w.Load(); err != nil || found {
		t.Fatalf("fresh MultiWAL: found=%v err=%v", found, err)
	}
	var votes core.VoteState
	votes.Record(1, 2, "x")
	want := multishot.PersistentState{
		Finalized: 5,
		FinalHead: types.Block{Slot: 5}.ID(),
		Slots: []multishot.SlotPersist{
			{Slot: 6, View: 2, HighestVC: 3, Votes: votes},
			{Slot: 7, View: 0, HighestVC: 0},
		},
	}
	if err := w.Persist(want); err != nil {
		t.Fatal(err)
	}
	got, found, err := w.Load()
	if err != nil || !found {
		t.Fatalf("Load: found=%v err=%v", found, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %+v want %+v", got, want)
	}
	// Corruption detection applies to the multi-shot snapshot too.
	path := filepath.Join(dir, "state.bin")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.Load(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("corrupt multi snapshot: got err=%v, want ErrCorrupt", err)
	}
}

// TestMultiWALSizeConstant: the multi-shot footprint is bounded by the
// in-flight window, independent of the finalized chain length (Table 1).
func TestMultiWALSizeConstant(t *testing.T) {
	w, err := OpenMulti(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var maxSize int64
	for fin := types.Slot(1); fin <= 200; fin++ {
		st := multishot.PersistentState{Finalized: fin, FinalHead: types.Block{Slot: fin}.ID()}
		for s := fin + 1; s <= fin+5; s++ {
			var votes core.VoteState
			votes.Record(1, types.View(fin%7), "v")
			st.Slots = append(st.Slots, multishot.SlotPersist{Slot: s, View: types.View(fin % 7), Votes: votes})
		}
		if err := w.Persist(st); err != nil {
			t.Fatal(err)
		}
		size, err := w.Size()
		if err != nil {
			t.Fatal(err)
		}
		if size > maxSize {
			maxSize = size
		}
	}
	if maxSize > 1024 {
		t.Errorf("multi-shot footprint grew to %d bytes over 200 finalized slots; Table 1 requires constant storage", maxSize)
	}
}

func TestOpenRejectsUnwritableDir(t *testing.T) {
	if os.Geteuid() == 0 {
		t.Skip("running as root; permission bits are not enforced")
	}
	parent := t.TempDir()
	if err := os.Chmod(parent, 0o555); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(filepath.Join(parent, "sub")); err == nil {
		t.Error("Open succeeded in an unwritable parent")
	}
}

type captureEnv struct {
	broadcasts []types.Message
}

func (e *captureEnv) Now() types.Time                        { return 0 }
func (e *captureEnv) Send(types.NodeID, types.Message)       {}
func (e *captureEnv) Broadcast(m types.Message)              { e.broadcasts = append(e.broadcasts, m) }
func (e *captureEnv) SetTimer(types.TimerID, types.Duration) {}
func (e *captureEnv) Decide(types.Slot, types.Value)         {}
