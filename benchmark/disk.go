package main

import (
	"fmt"
	"os"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"tetrabft/internal/multishot"
)

// diskKind says what a cluster's replicas persist to.
//
// The gated runs keep the host's disk out of the figures (README.md, "The
// disk"): a small durable write on it costs anything from 0.7 to 20 ms
// depending on what its other tenants are doing, for minutes at a time, and
// a cluster's pace, latency and CPU per slot all follow.
type diskKind int

const (
	// diskModel persists to a modelDisk: a durable write of fixed cost.
	diskModel diskKind = iota
	// diskNone runs the replicas without a Persister (multishot.Config.Persist
	// nil: state in memory only), which leaves the processor's work alone.
	diskNone
	// diskReal persists to wal.MultiWAL in the temp directory, exactly as
	// the scenario engine does: the ungated, as-measured rounds.
	diskReal
)

// modelWrite is what one durable write costs on the model disk: of the order
// of a small write+fsync+rename on a quiet local disk (0.65–0.8 ms on this
// host in its good spells).
const modelWrite = time.Millisecond

// modelDisk is a multishot.Persister that encodes the state the way the WAL
// does, keeps the bytes as the snapshot, and holds the caller for modelWrite.
//
// The wait parks the event loop's goroutine on a kernel timer (a timerfd
// read, woken through the network poller like a message from a peer). An
// fsync blocks the thread instead and keeps its scheduler context until the
// runtime's monitor takes it away; with four event loops on two contexts
// that starves the other replicas or not depending on which threads got
// which context at start, and a whole process then runs in one of two
// modes 6 ms of set-up time and 15 % of commit latency apart. A time.Sleep
// parks the goroutine too, but wakes through timers the idle poller rounds
// up to whole milliseconds.
type modelDisk struct {
	// timer is a non-blocking timerfd, so that reads go through the poller;
	// fd is its descriptor (File.Fd would switch it to blocking).
	timer *os.File
	fd    uintptr

	mu       sync.Mutex // the snapshot is read from outside the event loop at a relaunch
	snapshot []byte
}

const (
	clockMonotonic = 1
	tfdNonblock    = 0x800   // TFD_NONBLOCK = O_NONBLOCK
	tfdCloexec     = 0x80000 // TFD_CLOEXEC = O_CLOEXEC
)

func newModelDisk() (*modelDisk, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("model disk: timerfd_create: %w", errno)
	}
	return &modelDisk{timer: os.NewFile(fd, "timerfd"), fd: fd}, nil
}

func (d *modelDisk) close() { d.timer.Close() }

func (d *modelDisk) Persist(state multishot.PersistentState) error {
	data, err := state.MarshalBinary()
	if err != nil {
		return err
	}
	d.mu.Lock()
	d.snapshot = data
	d.mu.Unlock()
	// struct itimerspec{it_interval, it_value}: one expiry, modelWrite from now.
	spec := [2]syscall.Timespec{{}, syscall.NsecToTimespec(int64(modelWrite))}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, d.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("model disk: timerfd_settime: %w", errno)
	}
	var expirations [8]byte
	if _, err := d.timer.Read(expirations[:]); err != nil {
		return fmt.Errorf("model disk: %w", err)
	}
	return nil
}

// last decodes the latest snapshot; found is false when nothing was
// persisted yet.
func (d *modelDisk) last() (state multishot.PersistentState, found bool, err error) {
	d.mu.Lock()
	data := d.snapshot
	d.mu.Unlock()
	if data == nil {
		return state, false, nil
	}
	return state, true, state.UnmarshalBinary(data)
}
