// Package wal provides crash-durable storage for TetraBFT's constant-size
// persistent state (Section 3.1: the highest vote-1..4 plus second-highest
// vote-1/2, the current view and the view-change watermark).
//
// Because the state is constant-size, the log is not append-only: each
// Persist atomically replaces the previous snapshot (write temp + fsync +
// rename + directory fsync), which keeps the on-disk footprint constant
// across any number of views — the storage column of Table 1, measurable
// via Size.
//
// Snapshots carry a CRC32 (IEEE) prefix so a torn or partial write — a
// crash mid-write, a bit flip, a truncation — surfaces as a "corrupt
// snapshot" error on Load instead of decoding garbage into vote state.
package wal

import (
	"encoding"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"tetrabft/internal/core"
	"tetrabft/internal/multishot"
)

// ErrCorrupt marks a snapshot whose checksum or encoding failed validation.
var ErrCorrupt = errors.New("wal: corrupt snapshot")

// Store keeps one node's durable state S in a directory: each Persist
// atomically replaces the one snapshot, so the footprint stays constant
// however long the node runs. P is *S, through which Load decodes.
type Store[S encoding.BinaryMarshaler, P decoder[S]] struct {
	path string
}

type decoder[S any] interface {
	*S
	encoding.BinaryUnmarshaler
}

// WAL stores one single-shot node's durable state.
type WAL = Store[core.PersistentState, *core.PersistentState]

// MultiWAL stores one multi-shot node's durable state: the finalized
// watermark plus the ≤5-slot in-flight pipeline window.
type MultiWAL = Store[multishot.PersistentState, *multishot.PersistentState]

var (
	_ core.Persister      = (*WAL)(nil)
	_ multishot.Persister = (*MultiWAL)(nil)
)

// Open creates (or reuses) a single-shot durable store rooted at dir.
func Open(dir string) (*WAL, error) { return open[core.PersistentState](dir) }

// OpenMulti creates (or reuses) a multi-shot durable store rooted at dir.
func OpenMulti(dir string) (*MultiWAL, error) { return open[multishot.PersistentState](dir) }

// Persist implements core.Persister and multishot.Persister: atomically
// replace the snapshot.
func (w *Store[S, P]) Persist(state S) error {
	data, err := state.MarshalBinary()
	if err != nil {
		return fmt.Errorf("wal: encode: %w", err)
	}
	return writeSnapshot(w.path, data)
}

// Load reads the last persisted state. The boolean reports whether a
// snapshot existed.
func (w *Store[S, P]) Load() (S, bool, error) {
	var state S
	data, found, err := readSnapshot(w.path)
	if err != nil || !found {
		return state, false, err
	}
	if err := P(&state).UnmarshalBinary(data); err != nil {
		return state, false, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return state, true, nil
}

// Size returns the on-disk footprint in bytes (0 if nothing persisted).
func (w *Store[S, P]) Size() (int64, error) {
	info, err := os.Stat(w.path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("wal: stat: %w", err)
	}
	return info.Size(), nil
}

func open[S encoding.BinaryMarshaler, P decoder[S]](dir string) (*Store[S, P], error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return nil, fmt.Errorf("wal: sync dir: %w", err)
	}
	return &Store[S, P]{path: filepath.Join(dir, "state.bin")}, nil
}

// syncDir makes dir's entries durable: a rename is only on disk once its
// directory is synced. A variable so tests can count and fail the syncs.
var syncDir = func(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeSnapshot atomically replaces the snapshot at path with a
// CRC32-prefixed encoding of data (write temp + fsync + rename + fsync of
// the directory). Without the last step a power loss after Persist returned
// could bring back the previous snapshot, and a restored node could vote
// twice in one view.
func writeSnapshot(path string, data []byte) error {
	framed := make([]byte, 4+len(data))
	binary.BigEndian.PutUint32(framed, crc32.ChecksumIEEE(data))
	copy(framed[4:], data)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create temp: %w", err)
	}
	if _, err := f.Write(framed); err != nil {
		f.Close()
		return fmt.Errorf("wal: write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: close: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("wal: rename: %w", err)
	}
	if err := syncDir(filepath.Dir(path)); err != nil {
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	return nil
}

// readSnapshot reads the snapshot at path and validates its checksum. A
// missing file is (nil, false, nil) — a fresh store, not an error; the
// write path's temp+rename discipline means a crash mid-Persist leaves
// either the old complete snapshot or none at all, never a torn one at the
// final path. The checksum catches everything else (bit rot, truncation,
// external tampering).
func readSnapshot(path string) ([]byte, bool, error) {
	framed, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("wal: read: %w", err)
	}
	if len(framed) < 4 {
		return nil, false, fmt.Errorf("%w: %d bytes, shorter than the checksum", ErrCorrupt, len(framed))
	}
	want := binary.BigEndian.Uint32(framed)
	data := framed[4:]
	if got := crc32.ChecksumIEEE(data); got != want {
		return nil, false, fmt.Errorf("%w: checksum mismatch (stored %08x, computed %08x)", ErrCorrupt, want, got)
	}
	return data, true, nil
}
