// Package replica hosts one multishot replica on a TCP runtime across its
// incarnations: the paper's recoverable node (Section 3.1), which persists
// before it sends and after a crash comes back from what it persisted. A
// Host kills the live incarnation the way a crashing process dies and
// relaunches a new one on the same address with the same peers; what an
// incarnation persists to, and what wraps its node, is the caller's.
package replica

import (
	"errors"
	"sync"
	"sync/atomic"

	"tetrabft/internal/multishot"
	"tetrabft/internal/transport"
	"tetrabft/internal/types"
)

// A Store is what an incarnation persists to and restores from: a
// wal.MultiWAL, or any persister that reads its last state back.
type Store interface {
	multishot.Persister
	Load() (state multishot.PersistentState, found bool, err error)
}

// Config is what every incarnation of one replica is built from.
type Config struct {
	// Node configures each node; its Persist is the incarnation's store.
	Node multishot.Config
	// Runtime configures each runtime. The first listens on ListenAddr
	// (empty = a free loopback port), every later one where the first did.
	// Its OnDecide is the host's.
	Runtime transport.Config
	// Open opens an incarnation's store, which it restores from when the
	// store holds a state. Nil Open persists nothing and starts fresh.
	Open func() (Store, error)
	// Wrap, when set, runs once per incarnation before the node is built.
	// It may wrap cfg's Persist and Batch, and returns what turns the node
	// into the machine the runtime hosts (nil = the node itself).
	Wrap func(cfg *multishot.Config) func(*multishot.Node) types.Machine
	// OnDecide, when set, observes each decision and its value on the
	// incarnation's event loop, after the watermark has risen.
	OnDecide func(node *multishot.Node, slot types.Slot, val types.Value)
}

// Host is one replica across its incarnations. Its methods are safe for
// concurrent use, except that Open, Wrap and OnDecide must not call Start,
// Kill, Relaunch or Close.
type Host struct {
	cfg  Config
	addr string

	// life serializes Start, Kill, Relaunch and Close, which block (a kill
	// joins the incarnation's goroutines) and call Open and Wrap. mu guards
	// the incarnation for the readers and is held across neither; live
	// changes under both.
	life     sync.Mutex
	closed   bool
	peers    map[types.NodeID]string
	mu       sync.Mutex
	node     *multishot.Node
	live     *transport.Runtime   // nil while the replica is down
	runtimes []*transport.Runtime // every incarnation's, for their counters

	// watermark is the highest slot the latest incarnation finalized.
	watermark atomic.Int64
}

// Launch builds the first incarnation, listening but not running until
// Start.
func Launch(cfg Config) (*Host, error) {
	h := &Host{cfg: cfg, addr: cfg.Runtime.ListenAddr}
	if h.addr == "" {
		h.addr = "127.0.0.1:0"
	}
	if err := h.incarnate(); err != nil {
		return nil, err
	}
	h.addr = h.live.Addr()
	return h, nil
}

// incarnate builds an incarnation and makes it the live one: it opens the
// store, restores the node from it or starts the node fresh, and binds a
// runtime to h.addr. The caller holds life, or has not shared h yet.
func (h *Host) incarnate() error {
	cfg, state, found := h.cfg.Node, multishot.PersistentState{}, false
	cfg.Persist = nil
	if h.cfg.Open != nil {
		store, err := h.cfg.Open()
		if err == nil {
			state, found, err = store.Load()
		}
		if err != nil {
			return err
		}
		cfg.Persist = store
	}
	var wrap func(*multishot.Node) types.Machine
	if h.cfg.Wrap != nil {
		wrap = h.cfg.Wrap(&cfg)
	}
	var node *multishot.Node
	var err error
	if found {
		node, err = multishot.Restore(cfg, state)
	} else {
		node, err = multishot.NewNode(cfg)
	}
	if err != nil {
		return err
	}
	var machine types.Machine = node
	if wrap != nil {
		machine = wrap(node)
	}
	rcfg := h.cfg.Runtime
	rcfg.ListenAddr = h.addr
	rcfg.OnDecide = func(slot types.Slot, val types.Value) {
		h.watermark.Store(max(h.watermark.Load(), int64(slot)))
		if h.cfg.OnDecide != nil {
			h.cfg.OnDecide(node, slot, val)
		}
	}
	rt, err := transport.New(machine, rcfg)
	if err != nil {
		return err
	}
	h.mu.Lock()
	h.node, h.live, h.runtimes = node, rt, append(h.runtimes, rt)
	h.mu.Unlock()
	return nil
}

// Addr is where every incarnation listens.
func (h *Host) Addr() string { return h.addr }

// Start runs the incarnation Launch built, connected to peers; every later
// incarnation connects to them too.
func (h *Host) Start(peers map[types.NodeID]string) {
	h.life.Lock()
	defer h.life.Unlock()
	if h.peers = peers; h.live != nil {
		h.live.SetPeers(peers)
		h.live.Run()
	}
}

// Kill hard-stops the live incarnation: its listener vanishes and its
// connections are reset mid-stream, and what it persisted stays in its
// store. Kill does nothing while the replica is down.
func (h *Host) Kill() {
	h.life.Lock()
	defer h.life.Unlock()
	if rt := h.down(); rt != nil {
		rt.Kill()
	}
}

// Relaunch runs a new incarnation of a killed replica, restored from the
// store Open returns now. Its watermark starts from 0: a restored node
// rebuilds no finalized prefix and re-finalizes from slot 1. After Close,
// Relaunch starts nothing.
func (h *Host) Relaunch() error {
	h.life.Lock()
	defer h.life.Unlock()
	if h.closed {
		return nil
	}
	if h.live != nil {
		return errors.New("replica: relaunch of a live replica")
	}
	h.watermark.Store(0)
	if err := h.incarnate(); err != nil {
		return err
	}
	h.live.SetPeers(h.peers)
	h.live.Run()
	return nil
}

// Close stops the live incarnation, joining its goroutines, and makes
// later Start and Relaunch calls do nothing. It may be called more than
// once.
func (h *Host) Close() {
	h.life.Lock()
	defer h.life.Unlock()
	h.closed = true
	if rt := h.down(); rt != nil {
		rt.Close()
	}
}

// down marks the replica down and returns the runtime that was live.
func (h *Host) down() *transport.Runtime {
	h.mu.Lock()
	defer h.mu.Unlock()
	rt := h.live
	h.live = nil
	return rt
}

// Live reports whether an incarnation is up.
func (h *Host) Live() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.live != nil
}

// Do runs fn with the live node on its running event loop, the one safe way
// to read a node mid-run, and reports whether fn ran: false means fn never
// ran and never will.
func (h *Host) Do(fn func(*multishot.Node)) bool {
	h.mu.Lock()
	node, rt := h.node, h.live
	h.mu.Unlock()
	return rt != nil && rt.Do(func() { fn(node) })
}

// Node is the latest incarnation's node; read it once the replica is down.
func (h *Host) Node() *multishot.Node {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.node
}

// Watermark is the highest slot the latest incarnation finalized.
func (h *Host) Watermark() int64 { return h.watermark.Load() }

// Stats sums the link counters of every incarnation over its peers.
func (h *Host) Stats() (sum transport.PeerStats) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, rt := range h.runtimes {
		for _, s := range rt.Stats() {
			sum.Reconnects += s.Reconnects
			sum.DroppedFrames += s.DroppedFrames
			sum.ChaosDropped += s.ChaosDropped
			sum.ChaosDuplicated += s.ChaosDuplicated
		}
	}
	return sum
}

// ActiveTimers counts the pending runtime timers of every incarnation.
func (h *Host) ActiveTimers() (n int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, rt := range h.runtimes {
		n += rt.ActiveTimers()
	}
	return n
}
