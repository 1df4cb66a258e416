package main

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"tetrabft/internal/blockchain"
	"tetrabft/internal/multishot"
	"tetrabft/internal/obs"
	"tetrabft/internal/transport"
	"tetrabft/internal/types"
	"tetrabft/internal/wal"
)

// The cluster harness wires four replicas from the layers' public
// constructors the way internal/scenario/tcp.go:newRuntime does — a
// multishot node over a WAL, hosted by a loopback TCP runtime, all leaders
// draining one shared arrival-gated pool — but leaves the slot cap off
// (MaxSlot 0), so a run lasts as long as the benchmark drives it instead of
// ending at a slot target. What the replicas persist to is the cluster's
// diskKind (disk.go).
const (
	clusterNodes = 4
	// clusterDelta is Δ in transport ticks (1 tick = 1 ms): the view
	// timeout is 9Δ = 450 ms.
	clusterDelta = 50
	txBytes      = 32
)

// slotCommit is the earliest finalization of one slot across replicas.
type slotCommit struct {
	slot types.Slot
	at   time.Duration
}

// drainRec is one non-empty batch a leader drained into a proposal (traced
// runs only).
type drainRec struct {
	slot types.Slot
	at   time.Duration
	seqs []uint64
}

// replica is one WAL-backed node. node and rt are swapped on restart; mu
// guards the swap against the event-loop probe.
type replica struct {
	id     types.NodeID
	addr   string
	walDir string
	model  *modelDisk // this incarnation's disk on diskModel; launch alone touches it

	mu   sync.Mutex
	node *multishot.Node
	rt   *transport.Runtime
	// prior accumulates the link counters of killed runtimes.
	prior transport.PeerStats

	// watermark is the highest slot this incarnation saw finalize.
	watermark atomic.Int64
}

func (r *replica) runtime() *transport.Runtime {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rt
}

// cluster is the four-replica deployment plus what the benchmark observes
// of it from outside.
type cluster struct {
	root   string
	pool   *blockchain.TimedMempool
	batch  int
	disk   diskKind
	epoch  time.Time
	reps   []*replica
	addrs  map[types.NodeID]string
	tracer *tracer       // nil in an untraced run
	reg    *obs.Registry // nil in an untraced run

	firstOnce sync.Once
	first     chan struct{}
	// onCommit, when set, is told the transactions of every slot at its
	// first decision (the crash workload's client learns of commits here,
	// the way a real client hears back from a replica).
	onCommit func(txs [][]byte)

	mu       sync.Mutex
	commitAt map[types.Slot]time.Duration
	commits  []slotCommit
	// Traced runs only: what each leader drained, how many replicas have
	// decided each slot and when the last of them did, persist failures.
	drains      []drainRec
	decides     map[types.Slot]int
	allDecideAt map[types.Slot]time.Duration
	persistErrs int
}

// newCluster builds the replicas and binds their listeners; run starts
// them. poolLimit sizes the shared pool (0 = the pool's default).
func newCluster(batch, poolLimit int, disk diskKind, tr *tracer) (*cluster, error) {
	root, err := os.MkdirTemp("", "tetrabench-wal-")
	if err != nil {
		return nil, fmt.Errorf("wal dir: %w", err)
	}
	c := &cluster{
		root: root, pool: blockchain.NewTimedMempool(poolLimit), batch: batch, disk: disk,
		epoch: time.Now(), addrs: map[types.NodeID]string{}, tracer: tr,
		first: make(chan struct{}), commitAt: map[types.Slot]time.Duration{},
	}
	if tr != nil {
		c.epoch = tr.epoch
		c.reg = obs.NewRegistry()
		c.decides = map[types.Slot]int{}
		c.allDecideAt = map[types.Slot]time.Duration{}
	}
	for id := types.NodeID(0); id < clusterNodes; id++ {
		rep := &replica{id: id, walDir: filepath.Join(root, fmt.Sprintf("replica-%d", id))}
		c.reps = append(c.reps, rep)
		if err := c.launch(rep, false); err != nil {
			c.close()
			c.cleanup()
			return nil, err
		}
		rep.addr = rep.rt.Addr()
		c.addrs[id] = rep.addr
	}
	for _, rep := range c.reps {
		rep.rt.SetPeers(c.addrs)
	}
	return c, nil
}

// launch creates (or, with restore, recovers from its WAL) one replica's
// node and runtime. The caller starts the runtime.
func (c *cluster) launch(rep *replica, restore bool) error {
	cfg := multishot.Config{
		ID: rep.id, Nodes: clusterNodes, Delta: clusterDelta,
		Batch: c.pool.BatchSource(c.batch), Metrics: c.reg,
	}
	var store *wal.MultiWAL
	var err error
	if c.disk == diskReal || restore {
		if store, err = wal.OpenMulti(rep.walDir); err != nil {
			return err
		}
	}
	switch c.disk {
	case diskReal:
		cfg.Persist = store
	case diskModel:
		if restore {
			// The dead incarnation's last snapshot goes through the WAL
			// once, so that the relaunch reads its state back the way a
			// deployment does.
			state, found, err := rep.model.last()
			if err == nil && found {
				err = store.Persist(state)
			}
			if err != nil {
				return fmt.Errorf("replica %d: %w", rep.id, err)
			}
		}
		if rep.model != nil {
			rep.model.close()
		}
		if rep.model, err = newModelDisk(); err != nil {
			return err
		}
		cfg.Persist = rep.model
	}
	var tm *tracedMachine
	if c.tracer != nil {
		tm = &tracedMachine{c: c, t: c.tracer.newTrack(fmt.Sprintf("replica-%d", rep.id))}
		tm.env.m = tm
		if cfg.Persist != nil {
			cfg.Persist = tracedPersister{inner: cfg.Persist, m: tm}
		}
		cfg.Batch = tm.wrapBatch(cfg.Batch)
	}
	var node *multishot.Node
	if restore {
		state, found, err := store.Load()
		if err != nil {
			return fmt.Errorf("replica %d: %w", rep.id, err)
		}
		if !found {
			return fmt.Errorf("replica %d: no WAL snapshot to restore from", rep.id)
		}
		if node, err = multishot.Restore(cfg, state); err != nil {
			return fmt.Errorf("replica %d: %w", rep.id, err)
		}
	} else if node, err = multishot.NewNode(cfg); err != nil {
		return err
	}
	var machine types.Machine = node
	if tm != nil {
		tm.inner = node
		machine = tm
	}
	listen := rep.addr
	if listen == "" {
		listen = "127.0.0.1:0"
	}
	rt, err := transport.New(machine, transport.Config{
		ListenAddr: listen, Metrics: c.reg,
		OnDecide: func(slot types.Slot, _ types.Value) { c.onDecide(rep, node, slot) },
	})
	if err != nil {
		return err
	}
	rep.mu.Lock()
	rep.node, rep.rt = node, rt
	rep.mu.Unlock()
	return nil
}

// onDecide runs on the deciding replica's event loop. The commit time of a
// slot is the earliest decision across replicas — the scenario engine's
// definition.
func (c *cluster) onDecide(rep *replica, node *multishot.Node, slot types.Slot) {
	at := time.Since(c.epoch)
	c.mu.Lock()
	_, seen := c.commitAt[slot]
	if !seen {
		c.commitAt[slot] = at
		c.commits = append(c.commits, slotCommit{slot, at})
	}
	if c.decides != nil {
		c.decides[slot]++
		if c.decides[slot] == clusterNodes {
			c.allDecideAt[slot] = at
		}
	}
	c.mu.Unlock()
	if !seen && c.onCommit != nil {
		// The node appends a slot to its chain before it reports the
		// decision, and a chain starts at slot 1.
		if chain := node.FinalizedChain(); int(slot) <= len(chain) {
			c.onCommit(chain[slot-1].Txs)
		}
	}
	for {
		cur := rep.watermark.Load()
		if int64(slot) <= cur || rep.watermark.CompareAndSwap(cur, int64(slot)) {
			break
		}
	}
	c.firstOnce.Do(func() { close(c.first) })
}

func (c *cluster) maxWatermark() int64 {
	var max int64
	for _, rep := range c.reps {
		if w := rep.watermark.Load(); w > max {
			max = w
		}
	}
	return max
}

// run starts every replica and returns the instant it did.
func (c *cluster) run() time.Time {
	t := time.Now()
	for _, rep := range c.reps {
		rep.rt.Run()
	}
	return t
}

// kill hard-stops one replica the way a crashing process would.
func (c *cluster) kill(id types.NodeID) {
	rep := c.reps[id]
	rt := rep.runtime()
	rt.Kill()
	rep.mu.Lock()
	rep.prior = addStats(rep.prior, sumStats(rt.Stats()))
	rep.mu.Unlock()
}

// restart relaunches a killed replica on its old address from its WAL.
func (c *cluster) restart(id types.NodeID) error {
	rep := c.reps[id]
	if err := c.launch(rep, true); err != nil {
		return err
	}
	rt := rep.runtime()
	rt.SetPeers(c.addrs)
	rep.watermark.Store(0)
	rt.Run()
	return nil
}

// drainAndSettle waits until the shared pool is empty and the pipeline has
// moved far enough past that point for every drained batch to have been
// finalized or abandoned, or until grace runs out.
func (c *cluster) drainAndSettle(grace time.Duration) {
	deadline := time.Now().Add(grace)
	for c.pool.Len() > 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	// A leader stacks at most the pipeline window (5 slots) of proposals
	// above the finalized head; 8 more finalized slots clear all of them.
	target := c.maxWatermark() + 8
	for c.maxWatermark() < target && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
}

// close joins every runtime goroutine; node state is safe to read after.
func (c *cluster) close() {
	for _, rep := range c.reps {
		if rt := rep.runtime(); rt != nil {
			rt.Close()
		}
	}
}

// cleanup removes what the cluster put on the disk and closes its model
// disks; it follows close.
func (c *cluster) cleanup() {
	for _, rep := range c.reps {
		if rep.model != nil {
			rep.model.close()
		}
	}
	os.RemoveAll(c.root)
}

// linkStats sums every replica's link counters over all incarnations.
func (c *cluster) linkStats() transport.PeerStats {
	var out transport.PeerStats
	for _, rep := range c.reps {
		rep.mu.Lock()
		out = addStats(out, addStats(rep.prior, sumStats(rep.rt.Stats())))
		rep.mu.Unlock()
	}
	return out
}

func sumStats(per map[types.NodeID]transport.PeerStats) transport.PeerStats {
	var out transport.PeerStats
	for _, s := range per {
		out = addStats(out, s)
	}
	return out
}

func addStats(a, b transport.PeerStats) transport.PeerStats {
	return transport.PeerStats{
		Reconnects:    a.Reconnects + b.Reconnects,
		DroppedFrames: a.DroppedFrames + b.DroppedFrames,
	}
}

// makeTx builds transaction seq: an 8-byte sequence number then filler.
func makeTx(seq uint64, filler []byte) []byte {
	tx := make([]byte, txBytes)
	binary.BigEndian.PutUint64(tx, seq)
	copy(tx[8:], filler)
	return tx
}

func txSeq(tx []byte) (uint64, bool) {
	if len(tx) != txBytes {
		return 0, false
	}
	return binary.BigEndian.Uint64(tx), true
}

// ledger is the outcome of a cluster run, read after close: which slot
// committed each submitted transaction and when.
type ledger struct {
	// commitOf[seq] is the commit time of transaction seq, -1 when it
	// never committed.
	commitOf []time.Duration
	// slotOf[seq] is the slot that carried it (0 = none).
	slotOf    []types.Slot
	committed int
	height    types.Slot
}

// verify is the cluster correctness gate. Replicas' finalized chains must
// agree on their common prefix, a restarted replica must have re-adopted a
// non-empty prefix of that same chain from its peers, and every committed
// transaction must be one of the submitted ones, exactly once.
func (c *cluster) verify(submitted int, restarted types.NodeID) (*ledger, error) {
	var ref []types.Block
	for _, rep := range c.reps {
		if ch := rep.node.FinalizedChain(); len(ch) > len(ref) {
			ref = ch
		}
	}
	if len(ref) == 0 {
		return nil, fmt.Errorf("no replica finalized anything")
	}
	refIDs := make([]types.BlockID, len(ref))
	for i, b := range ref {
		refIDs[i] = b.ID()
	}
	for _, rep := range c.reps {
		chain := rep.node.FinalizedChain()
		for i, b := range chain {
			if b.ID() != refIDs[i] {
				return nil, fmt.Errorf("replica %d diverges from the longest chain at slot %d", rep.id, b.Slot)
			}
		}
		if rep.id == restarted && len(chain) == 0 {
			return nil, fmt.Errorf("restarted replica %d re-adopted nothing of the cluster's %d finalized slots", rep.id, len(ref))
		}
	}
	l := &ledger{
		commitOf: make([]time.Duration, submitted), slotOf: make([]types.Slot, submitted),
		height: types.Slot(len(ref)),
	}
	for i := range l.commitOf {
		l.commitOf[i] = -1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, b := range ref {
		if len(b.Txs) == 0 {
			continue
		}
		at, ok := c.commitAt[b.Slot]
		if !ok {
			return nil, fmt.Errorf("slot %d is on the finalized chain but no replica reported deciding it", b.Slot)
		}
		for _, tx := range b.Txs {
			seq, ok := txSeq(tx)
			if !ok || seq >= uint64(submitted) {
				return nil, fmt.Errorf("slot %d carries a transaction that was never submitted", b.Slot)
			}
			if l.slotOf[seq] != 0 {
				return nil, fmt.Errorf("transaction %d committed twice (slots %d and %d)", seq, l.slotOf[seq], b.Slot)
			}
			l.commitOf[seq], l.slotOf[seq] = at, b.Slot
			l.committed++
		}
	}
	return l, nil
}
