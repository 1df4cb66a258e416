package replica

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"tetrabft/internal/multishot"
	"tetrabft/internal/transport"
	"tetrabft/internal/types"
	"tetrabft/internal/wal"
)

const nodes = 4

// memStore keeps the last persisted state in memory, the way a model disk
// does.
type memStore struct {
	mu   sync.Mutex
	data []byte
}

func (s *memStore) Persist(state multishot.PersistentState) error {
	data, err := state.MarshalBinary()
	s.mu.Lock()
	s.data = data
	s.mu.Unlock()
	return err
}

func (s *memStore) Load() (state multishot.PersistentState, found bool, err error) {
	s.mu.Lock()
	data := s.data
	s.mu.Unlock()
	if data == nil {
		return state, false, nil
	}
	return state, true, state.UnmarshalBinary(data)
}

// loadLog wraps a Store and records whether each Load found a state.
type loadLog struct {
	Store
	mu    sync.Mutex
	found []bool
}

func (l *loadLog) Load() (multishot.PersistentState, bool, error) {
	state, found, err := l.Store.Load()
	l.mu.Lock()
	l.found = append(l.found, found)
	l.mu.Unlock()
	return state, found, err
}

func (l *loadLog) loads() []bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]bool(nil), l.found...)
}

// launchAll launches a running, unbounded (MaxSlot 0) cluster of four hosts
// whose links duplicate a fifth of their frames, each opening its store with
// open(id), and closes them when t ends.
func launchAll(t *testing.T, open func(id types.NodeID) func() (Store, error)) []*Host {
	t.Helper()
	hosts := make([]*Host, nodes)
	addrs := make(map[types.NodeID]string, nodes)
	for i := range hosts {
		id := types.NodeID(i)
		h, err := Launch(Config{
			Node:    multishot.Config{ID: id, Nodes: nodes, Delta: 10},
			Runtime: transport.Config{Chaos: &transport.Chaos{Seed: 1, DupRate: 0.2}},
			Open:    open(id),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(h.Close)
		hosts[i], addrs[id] = h, h.Addr()
	}
	for _, h := range hosts {
		h.Start(addrs)
	}
	return hosts
}

// waitFor polls cond for up to 20 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// noLeaks fails t unless, once t has finished, the goroutine count falls
// back within 2 s to what it was when noLeaks was called, and no host
// holds a pending runtime timer in any incarnation.
func noLeaks(t *testing.T, hosts func() []*Host) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				t.Errorf("%d goroutines still running, %d before:\n%s", runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		for _, h := range hosts() {
			if n := h.ActiveTimers(); n != 0 {
				t.Errorf("replica at %s holds %d pending timers", h.Addr(), n)
			}
		}
	})
}

// refuses fails t if anything accepts connections on addr.
func refuses(t *testing.T, addr, what string) {
	t.Helper()
	if conn, err := net.Dial("tcp", addr); err == nil {
		conn.Close()
		t.Errorf("%s: %s still accepts connections", what, addr)
	}
}

// TestRelaunch kills replica 1 of a running cluster and relaunches it from a
// WAL, from an in-memory store, and from nothing after its WAL is wiped.
// Each time the new incarnation listens on the old address, its peers
// reconnect, it loads a state exactly when its store holds one, its
// watermark restarts from 0, and it re-finalizes from slot 1 past where
// the cluster stood at the kill. The replica's link counters are the dead
// incarnation's plus the live one's.
func TestRelaunch(t *testing.T) {
	for _, tc := range []string{"wal", "memory", "wiped"} {
		t.Run(tc, func(t *testing.T) {
			var hosts []*Host
			noLeaks(t, func() []*Host { return hosts })
			root := t.TempDir()
			logs := make([]*loadLog, nodes)
			markAtOpen := int64(-1) // replica 1's watermark when its relaunch opens the store
			hosts = launchAll(t, func(id types.NodeID) func() (Store, error) {
				dir := filepath.Join(root, fmt.Sprint(id))
				mem := &memStore{}
				return func() (Store, error) {
					if id == 1 && hosts != nil {
						markAtOpen = hosts[1].Watermark()
					}
					var s Store = mem
					if tc != "memory" {
						w, err := wal.OpenMulti(dir)
						if err != nil {
							return nil, err
						}
						s = w
					}
					logs[id] = &loadLog{Store: s}
					return logs[id], nil
				}
			})
			victim := hosts[1]
			addr := victim.Addr()
			waitFor(t, "replica 1 to finalize slot 3", func() bool { return victim.Watermark() >= 3 })

			victim.Kill()
			if victim.Live() || victim.Do(func(*multishot.Node) {}) {
				t.Fatal("a killed replica is still live")
			}
			refuses(t, addr, "killed replica")
			dead := victim.Stats()
			if dead.ChaosDuplicated == 0 {
				t.Fatal("the first incarnation duplicated no frames")
			}
			mark := hosts[0].Watermark()
			waitFor(t, "the other three to finalize 3 more slots", func() bool { return hosts[0].Watermark() >= mark+3 })
			if tc == "wiped" {
				if err := os.RemoveAll(filepath.Join(root, "1")); err != nil {
					t.Fatal(err)
				}
			}
			mark = hosts[0].Watermark()

			if err := victim.Relaunch(); err != nil {
				t.Fatal(err)
			}
			if victim.Addr() != addr || !victim.Live() {
				t.Fatalf("relaunched replica live %v at %s, want live at %s", victim.Live(), victim.Addr(), addr)
			}
			if got, want := logs[1].loads(), []bool{tc != "wiped"}; len(got) != 1 || got[0] != want[0] {
				t.Errorf("relaunched incarnation's store found a state %v, want %v", got, want)
			}
			if markAtOpen != 0 {
				t.Errorf("the relaunch opened its store at watermark %d, want it reset to 0", markAtOpen)
			}
			waitFor(t, "the relaunched replica to catch up", func() bool { return victim.Watermark() > mark })
			var chain int
			if !victim.Do(func(n *multishot.Node) { chain = len(n.FinalizedChain()) }) || int64(chain) < mark {
				t.Errorf("relaunched replica holds %d finalized blocks, want ≥ %d from slot 1", chain, mark)
			}
			var reconnects int64
			for _, h := range hosts {
				if h != victim {
					reconnects += h.Stats().Reconnects
				}
			}
			if reconnects == 0 {
				t.Error("no peer reconnected to the relaunched replica")
			}
			// Counters only grow, so the sum read after the live incarnation's
			// own is at least the dead one's plus it.
			var own transport.PeerStats
			waitFor(t, "the new incarnation to duplicate a frame", func() bool {
				victim.mu.Lock()
				defer victim.mu.Unlock()
				own = transport.PeerStats{}
				for _, s := range victim.live.Stats() {
					own.Reconnects += s.Reconnects
					own.ChaosDuplicated += s.ChaosDuplicated
				}
				return own.ChaosDuplicated > 0
			})
			if s := victim.Stats(); s.ChaosDuplicated < dead.ChaosDuplicated+own.ChaosDuplicated || s.Reconnects < dead.Reconnects+own.Reconnects {
				t.Errorf("stats %+v are not the dead incarnation's %+v plus the live one's %+v", s, dead, own)
			}
		})
	}
}

// TestKillCloseLeaveNothing: a host killed and then closed, and a relaunch
// or start after close, leave no goroutine and no runtime timer behind, and
// nothing listens on the replicas' addresses.
func TestKillCloseLeaveNothing(t *testing.T) {
	var hosts []*Host
	noLeaks(t, func() []*Host { return hosts })
	hosts = launchAll(t, func(types.NodeID) func() (Store, error) { return nil })
	waitFor(t, "every replica to finalize slot 2", func() bool {
		return !slices.ContainsFunc(hosts, func(h *Host) bool { return h.Watermark() < 2 })
	})
	hosts[1].Kill()
	hosts[1].Kill() // a second kill finds the replica down
	for _, h := range hosts {
		h.Close()
	}
	if err := hosts[1].Relaunch(); err != nil {
		t.Fatal(err)
	}
	hosts[2].Start(nil)
	for i, h := range hosts {
		if h.Live() {
			t.Errorf("replica %d is live after close", i)
		}
		refuses(t, h.Addr(), fmt.Sprintf("replica %d after close", i))
		if n := h.Node().FinalizedSlot(); n < 2 {
			t.Errorf("replica %d's node reads finalized slot %d after close, want ≥ 2", i, n)
		}
	}
}

// TestRelaunchLiveOrUnopenable: a live replica cannot be relaunched over
// itself, and a store that fails to open fails the launch or the relaunch,
// leaving the replica down.
func TestRelaunchLiveOrUnopenable(t *testing.T) {
	var hosts []*Host
	noLeaks(t, func() []*Host { return hosts })
	fail := false
	hosts = launchAll(t, func(types.NodeID) func() (Store, error) {
		return func() (Store, error) {
			if fail {
				return nil, errors.New("disk gone")
			}
			return &memStore{}, nil
		}
	})
	if err := hosts[0].Relaunch(); err == nil {
		t.Error("relaunched a live replica")
	}
	hosts[0].Kill()
	fail = true
	if err := hosts[0].Relaunch(); err == nil || hosts[0].Live() {
		t.Errorf("relaunch with an unopenable store: err %v, live %v", err, hosts[0].Live())
	}
	if _, err := Launch(Config{Node: multishot.Config{ID: 0, Nodes: nodes}, Open: func() (Store, error) { return nil, errors.New("disk gone") }}); err == nil {
		t.Error("launched with an unopenable store")
	}
}

// TestLaunchRestores: an incarnation whose store holds a state is restored
// from it, and one whose store is empty starts fresh.
func TestLaunchRestores(t *testing.T) {
	full := &memStore{}
	if err := full.Persist(multishot.PersistentState{Slots: []multishot.SlotPersist{{Slot: 3, View: 2}}}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		store *memStore
		view  types.View
	}{{full, 2}, {&memStore{}, 0}} {
		h, err := Launch(Config{Node: multishot.Config{ID: 0, Nodes: nodes}, Open: func() (Store, error) { return tc.store, nil }})
		if err != nil {
			t.Fatal(err)
		}
		h.Close()
		if v := h.Node().ViewOf(3); v != tc.view {
			t.Errorf("slot 3 launched in view %d, want %d", v, tc.view)
		}
	}
}
