package scenario

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tetrabft/internal/blockchain"
	"tetrabft/internal/multishot"
	"tetrabft/internal/obs"
	"tetrabft/internal/quorum"
	"tetrabft/internal/trace"
	"tetrabft/internal/transport"
	"tetrabft/internal/types"
	"tetrabft/internal/wal"
)

// Both TCP runners drive one cluster type: a tcpCluster of WAL-backed
// multishot replicas on localhost ports. The flat run is one cluster; a
// sharded run is S shard clusters plus the anchor cluster. launch starts
// every replica (WAL open → restored or fresh node → runtime) and wires the
// peers, and a launch that fails closes whatever it started; begin runs
// them and arms the crash-restart timers. kill hard-stops a replica the way
// a crashing process dies; relaunch brings it back on its old address from
// its WAL, or from nothing when the WAL is wiped. close stops the timers,
// waits for a fault callback already running and closes every runtime; a
// relaunch that finds the cluster closed closes what it started. fold,
// after close, checks shared-prefix agreement among the required replicas
// and sums the cluster up. What differs between clusters is set by the
// runner; what the clusters of one run share — WAL root, chaos policy,
// metrics, the pending-fault count and the completion wait — is a tcpRun.

// tcpRun is the plumbing every cluster of one TCP run shares.
type tcpRun struct {
	p        *plan
	walRoot  string
	start    time.Time
	chaos    *transport.Chaos
	reg      *obs.Registry // one registry for every replica and incarnation
	clusters []*tcpCluster

	// kick wakes the completion wait after any progress; errCh carries the
	// first failed fault. pending holds the run open until every scheduled
	// crash and restart has executed — a cluster fast enough to finalize
	// the target before the first crash fires must still live through the
	// fault schedule.
	kick    chan struct{}
	errCh   chan error
	pending atomic.Int64
}

func newTCPRun(p *plan) (*tcpRun, error) {
	walRoot, err := os.MkdirTemp("", "tetrabft-wal-")
	if err != nil {
		return nil, fmt.Errorf("scenario: wal dir: %w", err)
	}
	r := &tcpRun{
		p: p, walRoot: walRoot, start: time.Now(),
		chaos: buildChaos(p, time.Millisecond), // the transport's default tick
		kick:  make(chan struct{}, 1), errCh: make(chan error, 1),
	}
	if p.sc.Collect.Metrics {
		r.reg = obs.NewRegistry()
	}
	return r, nil
}

// add registers cl with the run: one replica per id in ids (a silent member
// never runs), each with its own mempool and WAL directory.
func (r *tcpRun) add(cl *tcpCluster, ids []types.NodeID, crashes []FaultSpec) *tcpCluster {
	cl.run = r
	cl.crashes = crashes
	cl.commitAt = make(map[types.Slot]int64)
	dir := filepath.Join(r.walRoot, fmt.Sprintf("cluster-%d", len(r.clusters)))
	for _, id := range ids {
		cl.replicas = append(cl.replicas, &tcpReplica{
			id:       id,
			walDir:   filepath.Join(dir, fmt.Sprintf("replica-%d", id)),
			mempool:  blockchain.NewMempool(0),
			required: true,
		})
	}
	for _, c := range crashes {
		cl.replica(c.Node).required = c.RestartAtMS > 0
	}
	r.clusters = append(r.clusters, cl)
	return cl
}

// launch launches every cluster, then begins them all at once: a client
// that arrives right after launch finds every cluster at the same early
// slot, with its proposals still ahead of it.
func (r *tcpRun) launch() error {
	for _, cl := range r.clusters {
		if err := cl.launch(); err != nil {
			return err
		}
	}
	for _, cl := range r.clusters {
		cl.begin()
	}
	return nil
}

// wait blocks until every scheduled fault has executed and done holds. It
// returns the first failed fault, or once Stop.WallClockMS (30 s by
// default) has passed, an error naming what it waited for and every
// replica's watermark.
func (r *tcpRun) wait(done func() bool, what string) error {
	wallClock := time.Duration(r.p.sc.Stop.WallClockMS) * time.Millisecond
	if wallClock == 0 {
		wallClock = 30 * time.Second
	}
	deadline := time.After(wallClock)
	for r.pending.Load() != 0 || !done() {
		select {
		case <-r.kick:
		case err := <-r.errCh:
			return err
		case <-deadline:
			var marks []string
			for _, cl := range r.clusters {
				for _, rep := range cl.replicas {
					marks = append(marks, fmt.Sprintf("%s:%d", cl.who(rep), rep.watermark.Load()))
				}
			}
			return fmt.Errorf("scenario %q: timed out before %s (watermarks %v)", r.p.sc.Name, what, marks)
		}
	}
	return nil
}

func (r *tcpRun) wake() {
	select {
	case r.kick <- struct{}{}:
	default:
	}
}

func (r *tcpRun) close() {
	for _, cl := range r.clusters {
		cl.close()
	}
	os.RemoveAll(r.walRoot)
}

// tcpCluster is one cluster of a TCP run: the runner sets the fields above
// run, add the rest.
type tcpCluster struct {
	name     string        // labels errors: "shard 3", "anchor cluster", "" for the flat run
	nodes    int           // membership size; silent members count toward quorum math but never run
	quorum   quorum.System // nil = threshold over nodes
	maxSlot  types.Slot    // proposal cap, 0 = none
	perBlock int           // mempool transactions per block payload
	batch    func(types.Slot, types.Time) [][]byte
	tracer   trace.Tracer

	run      *tcpRun
	replicas []*tcpReplica
	crashes  []FaultSpec
	addrs    map[types.NodeID]string // pinned listen addresses, reused across restarts

	// commitAt records each slot's earliest wall-clock commit across every
	// replica and incarnation, feeding the per-transaction latency fold.
	commitMu sync.Mutex
	commitAt map[types.Slot]int64

	// mu guards closed, timers and every replica's incarnation; running
	// counts the fault callbacks in flight, which close waits out.
	mu      sync.Mutex
	closed  bool
	timers  []*time.Timer
	running sync.WaitGroup
}

type tcpReplica struct {
	id      types.NodeID
	walDir  string
	mempool *blockchain.Mempool
	// required is false for a replica that crashes and never restarts: it
	// cannot reach the target and the run must not wait for it.
	required bool

	incarnation // runtime is nil while the replica is down
	// prior accumulates the link counters of killed runtimes so the fold
	// reports the whole replica lifetime, not just the last incarnation.
	// kill writes it; the fold reads it after close.
	prior transport.PeerStats

	// watermark is the highest finalized slot observed via OnDecide. A
	// restarted replica re-finalizes from slot 1, so completion tracks the
	// maximum rather than counting decision events.
	watermark atomic.Int64
}

// incarnation is one launch of a replica.
type incarnation struct {
	node    *multishot.Node
	runtime *transport.Runtime
	store   *wal.MultiWAL
}

// replica returns the replica with id, nil for a member that never runs.
func (cl *tcpCluster) replica(id types.NodeID) *tcpReplica {
	for _, rep := range cl.replicas {
		if rep.id == id {
			return rep
		}
	}
	return nil
}

// who names rep in errors: "replica 2", or "shard 1 replica 2".
func (cl *tcpCluster) who(rep *tcpReplica) string {
	return strings.TrimSpace(fmt.Sprintf("%s replica %d", cl.name, rep.id))
}

// start opens rep's WAL and builds a runtime for it, restoring the node
// from the WAL's snapshot if there is one (none at launch or after a
// wipe). A relaunch rebinds rep's address, so peers' reconnect loops find
// it again.
func (cl *tcpCluster) start(rep *tcpReplica) (incarnation, error) {
	store, err := wal.OpenMulti(rep.walDir)
	if err != nil {
		return incarnation{}, err
	}
	state, found, err := store.Load()
	if err != nil {
		return incarnation{}, fmt.Errorf("%s: %w", cl.who(rep), err)
	}
	p := cl.run.p
	cfg := multishot.Config{
		ID: rep.id, Quorum: cl.quorum, Nodes: cl.nodes, Delta: p.delta(),
		TimeoutFactor: p.sc.TimeoutFactor, MaxSlot: cl.maxSlot,
		Window:  p.sc.Workload.Window,
		Payload: rep.mempool.PayloadSource(cl.perBlock), Persist: store,
		Batch:  cl.batch,
		Tracer: cl.tracer, Metrics: cl.run.reg,
	}
	var node *multishot.Node
	if found {
		node, err = multishot.Restore(cfg, state)
	} else {
		node, err = multishot.NewNode(cfg)
	}
	if err != nil {
		return incarnation{}, fmt.Errorf("%s: %w", cl.who(rep), err)
	}
	listen := cl.addrs[rep.id]
	if listen == "" {
		listen = "127.0.0.1:0"
	}
	rt, err := transport.New(node, transport.Config{
		ListenAddr: listen,
		Chaos:      cl.run.chaos,
		Metrics:    cl.run.reg,
		OnDecide: func(slot types.Slot, _ types.Value) {
			ms := time.Since(cl.run.start).Milliseconds()
			cl.commitMu.Lock()
			if c, ok := cl.commitAt[slot]; !ok || ms < c {
				cl.commitAt[slot] = ms
			}
			cl.commitMu.Unlock()
			for {
				cur := rep.watermark.Load()
				if int64(slot) <= cur || rep.watermark.CompareAndSwap(cur, int64(slot)) {
					break
				}
			}
			cl.run.wake()
		},
	})
	if err != nil {
		return incarnation{}, err
	}
	return incarnation{node: node, runtime: rt, store: store}, nil
}

// launch starts every replica and wires the peers. On an error it closes
// whatever it had started.
func (cl *tcpCluster) launch() error {
	cl.addrs = make(map[types.NodeID]string, len(cl.replicas))
	for _, rep := range cl.replicas {
		inc, err := cl.start(rep)
		if err != nil {
			cl.close()
			return fmt.Errorf("scenario: launch %s: %w", cl.who(rep), err)
		}
		rep.incarnation = inc
		cl.addrs[rep.id] = inc.runtime.Addr()
	}
	for _, rep := range cl.replicas {
		rep.runtime.SetPeers(cl.addrs)
	}
	return nil
}

// begin runs every replica and arms the crash-restart faults.
func (cl *tcpCluster) begin() {
	for _, rep := range cl.replicas {
		rep.runtime.Run()
	}
	for _, c := range cl.crashes {
		rep := cl.replica(c.Node)
		cl.after(c.CrashAtMS, func() error {
			cl.kill(rep)
			return nil
		})
		if c.RestartAtMS > 0 {
			cl.after(c.RestartAtMS, func() error { return cl.relaunch(rep, c.WipeWAL) })
		}
	}
}

// after runs fn as a fault callback ms milliseconds from now. The fault is
// pending until fn has succeeded; a failure ends the run. Once the cluster
// is closed the callback does nothing, and close waits for one already
// running.
func (cl *tcpCluster) after(ms int64, fn func() error) {
	cl.run.pending.Add(1)
	t := time.AfterFunc(time.Duration(ms)*time.Millisecond, func() {
		cl.mu.Lock()
		if cl.closed {
			cl.mu.Unlock()
			return
		}
		cl.running.Add(1)
		cl.mu.Unlock()
		defer cl.running.Done()
		if err := fn(); err != nil {
			select {
			case cl.run.errCh <- err:
			default: // an earlier failure already ends the run
			}
			return
		}
		cl.run.pending.Add(-1)
		cl.run.wake()
	})
	cl.mu.Lock()
	cl.timers = append(cl.timers, t)
	cl.mu.Unlock()
}

// kill hard-stops rep the way a crashing process dies: its listener
// vanishes and its connections are reset mid-stream.
func (cl *tcpCluster) kill(rep *tcpReplica) {
	cl.mu.Lock()
	rt := rep.runtime
	rep.runtime = nil
	cl.mu.Unlock()
	rt.Kill()
	rep.prior = addStats(rep.prior, aggregateStats(rt.Stats()))
}

// relaunch brings rep back, restored from its WAL, or from nothing when
// wipe discards the WAL first.
func (cl *tcpCluster) relaunch(rep *tcpReplica, wipe bool) error {
	if wipe {
		if err := os.RemoveAll(rep.walDir); err != nil {
			return fmt.Errorf("scenario: wipe wal of %s: %w", cl.who(rep), err)
		}
	}
	inc, err := cl.start(rep)
	if err != nil {
		return fmt.Errorf("scenario: restart %s: %w", cl.who(rep), err)
	}
	inc.runtime.SetPeers(cl.addrs)
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.closed {
		inc.runtime.Close()
		return nil
	}
	rep.incarnation = inc
	// The recovered incarnation must re-prove the watermark itself (restore
	// + catch-up re-finalizes from slot 1); pre-crash progress doesn't count.
	rep.watermark.Store(0)
	inc.runtime.Run()
	return nil
}

// close stops the fault timers, waits for a fault callback already running,
// and closes every runtime, joining its goroutines. It may be called more
// than once.
func (cl *tcpCluster) close() {
	cl.mu.Lock()
	cl.closed = true
	for _, t := range cl.timers {
		t.Stop()
	}
	cl.mu.Unlock()
	cl.running.Wait()
	for _, rep := range cl.replicas {
		if _, rt := cl.live(rep); rt != nil {
			rt.Close()
		}
	}
}

// live returns rep's current node and runtime; the runtime is nil while rep
// is down.
func (cl *tcpCluster) live(rep *tcpReplica) (*multishot.Node, *transport.Runtime) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return rep.node, rep.runtime
}

// refChain snapshots the first live replica's finalized chain through its
// event loop (the only safe way to read machine state mid-run). ok is false
// when every replica is down — distinct from a live replica whose chain is
// still empty (early in a run nothing has finalized yet, and conflating the
// two made the gateway 503 transiently).
func (cl *tcpCluster) refChain() (chain []types.Block, ok bool) {
	for _, rep := range cl.replicas {
		node, rt := cl.live(rep)
		if rt != nil && rt.Do(func() { chain = append([]types.Block(nil), node.FinalizedChain()...) }) {
			return chain, true
		}
	}
	return nil, false
}

// minWatermark is the lowest finalized watermark across required replicas.
func (cl *tcpCluster) minWatermark() int64 {
	min := int64(-1)
	for _, rep := range cl.replicas {
		if !rep.required {
			continue
		}
		if w := rep.watermark.Load(); min < 0 || w < min {
			min = w
		}
	}
	if min < 0 {
		return 0
	}
	return min
}

// fold closes the cluster — its event loops may still be delivering slots
// past the target, and multishot nodes have no internal locking — and sums
// it up, with the largest WAL beside the sum. Chains may disagree in
// length (stragglers keep catching up) but never in content: each required
// replica's chain is checked against the first one's over their shared
// prefix, like the simulator's agreement monitor does per slot. A replica
// that crashed for good is skipped there: its node was abandoned mid-run.
func (cl *tcpCluster) fold() (in shardFoldInput, maxWAL int64, err error) {
	cl.close()
	in = shardFoldInput{commitAt: cl.commitAt, finalized: -1}
	var ref *tcpReplica
	for _, rep := range cl.replicas {
		stats := rep.stats()
		in.reconnects += stats.Reconnects
		in.droppedFrames += stats.DroppedFrames
		if size, err := rep.store.Size(); err == nil && size > maxWAL {
			maxWAL = size
		}
		if !rep.required {
			continue
		}
		chain := rep.node.FinalizedChain()
		if ref == nil {
			ref, in.chain = rep, chain
		}
		for i := range chain {
			if rep != ref && i < len(in.chain) && chain[i].ID() != in.chain[i].ID() {
				return in, maxWAL, agreementError{fmt.Errorf("replicas %d and %d diverge at slot %d", ref.id, rep.id, chain[i].Slot)}
			}
		}
		if s := int64(rep.node.FinalizedSlot()); in.finalized < 0 || s < in.finalized {
			in.finalized = s
		}
	}
	return in, maxWAL, nil
}

// stats sums rep's link counters over every incarnation; read it after the
// fold.
func (rep *tcpReplica) stats() transport.PeerStats {
	if rep.runtime == nil {
		return rep.prior
	}
	return addStats(rep.prior, aggregateStats(rep.runtime.Stats()))
}

// runTCP executes a multi-shot scenario over real TCP runtimes on localhost
// — the deployment shape — as one tcpCluster. Every replica persists
// through a WAL; the crash-restart faults hard-kill replicas mid-stream and
// relaunch them from that WAL, and the network regime plus partition
// faults drive a seeded frame-level chaos policy on every link. The run
// ends when every required replica has finalized Workload.Slots, or errors
// after Stop.WallClockMS real milliseconds.
func runTCP(p *plan) (*Result, error) {
	r, err := newTCPRun(p)
	if err != nil {
		return nil, err
	}
	defer r.close()

	cl := &tcpCluster{nodes: len(p.members), quorum: p.qs, maxSlot: p.maxSlot, perBlock: 8}
	if per := p.sc.Workload.TxsPerBlock; per > 0 {
		cl.perBlock = per
	}
	// One shared trace log across every replica (and every incarnation):
	// trace.Log is mutex-guarded, so the event loops feed it concurrently.
	// Event times are transport ticks ≈ milliseconds, so the stage fold
	// downstream is the same one the simulator uses, just in a different
	// unit.
	var log *trace.Log
	if p.sc.Collect.Trace || p.sc.Collect.Stages {
		log = &trace.Log{}
		cl.tracer = log
	}
	// One cluster-shared offered-load stream (Workload.TxCount), exactly as
	// on the simulator; arrival times are in ticks = transport milliseconds.
	load := p.offeredLoad()
	cl.batch = load.batchSource(p.batchSize())
	r.add(cl, p.honest, p.crashes)
	for _, tx := range p.sc.Workload.Transactions {
		rep := cl.replica(tx.Node)
		if rep == nil {
			return nil, fmt.Errorf("scenario: transaction targets faulty node %d", tx.Node)
		}
		rep.mempool.Submit(buildTx(tx))
	}
	if err := r.launch(); err != nil {
		return nil, err
	}

	target := p.sc.Workload.Slots
	done := func() bool { return cl.minWatermark() >= target }
	if err := r.wait(done, fmt.Sprintf("all replicas finalized slot %d", target)); err != nil {
		return nil, err
	}
	finishedAt := time.Since(r.start).Milliseconds()
	in, maxWAL, err := cl.fold()
	if err != nil {
		return nil, fmt.Errorf("scenario %q: %w", p.sc.Name, err)
	}
	res := &Result{
		Name:            p.sc.Name,
		FinishedAt:      finishedAt,
		FirstDecisionAt: -1,
		MaxStorageBytes: maxWAL,
		OfferedTxs:      len(load.arrivals),
	}
	// Replicas are in member order, which is node order.
	for _, rep := range cl.replicas {
		stats := rep.stats()
		res.Transport = append(res.Transport, NodeTransport{
			Node:            rep.id,
			Reconnects:      stats.Reconnects,
			DroppedFrames:   stats.DroppedFrames,
			ChaosDropped:    stats.ChaosDropped,
			ChaosDuplicated: stats.ChaosDuplicated,
		})
		if !rep.required {
			continue
		}
		res.Finalized = append(res.Finalized, NodeSlot{Node: rep.id, Slot: rep.node.FinalizedSlot()})
		if p.sc.Collect.Chain {
			res.Chains = append(res.Chains, NodeChain{Node: rep.id, Blocks: rep.node.FinalizedChain()})
		}
	}
	res.txStats(in.chain, in.commitAt, load.arrivals)
	if p.sc.Collect.Chain {
		res.Chain = in.chain
	}
	if log != nil {
		// Event-loop interleaving makes the raw append order nondeterministic;
		// sort by (time, node, type, slot) for a stable artifact. The stage
		// fold is min-based and order-insensitive either way.
		events := log.Events()
		sort.SliceStable(events, func(i, j int) bool {
			a, b := events[i], events[j]
			if a.Time != b.Time {
				return a.Time < b.Time
			}
			if a.Node != b.Node {
				return a.Node < b.Node
			}
			if a.Type != b.Type {
				return a.Type < b.Type
			}
			return a.Slot < b.Slot
		})
		if p.sc.Collect.Trace {
			res.Trace = events
		}
		if p.sc.Collect.Stages {
			res.Stages = stageDists(stageSamples(events))
		}
	}
	if r.reg != nil {
		res.Metrics = r.reg.Snapshot()
	}
	return res, nil
}

// buildChaos maps the spec's network regime and partition faults onto the
// transport's deterministic frame-level chaos policy. Virtual ticks scale
// by the transport tick duration. Returns nil when the links are clean.
func buildChaos(p *plan, tick time.Duration) *transport.Chaos {
	nw := p.sc.Network
	ch := &transport.Chaos{Seed: uint64(p.seed())}
	used := false
	if nw.Duplicate > 0 {
		ch.DupRate = nw.Duplicate
		used = true
	}
	if nw.GST > 0 && nw.DropBeforeGST > 0 {
		ch.DropUntil = time.Duration(nw.GST) * tick
		ch.DropUntilRate = nw.DropBeforeGST
		used = true
	}
	if d := nw.Delay; d != nil {
		switch d.Model {
		case DelayUniform:
			ch.DelayMin = time.Duration(d.Min) * tick
			ch.DelayMax = time.Duration(d.Max) * tick
		default: // DelayConstant (per-link is rejected at compile)
			ch.DelayMin = time.Duration(d.D) * tick
			ch.DelayMax = ch.DelayMin
		}
		if ch.DelayMax > 0 {
			used = true
		}
	}
	if fn := buildPartitionFn(p.netwk, tick); fn != nil {
		ch.Partitioned = fn
		used = true
	}
	if !used {
		return nil
	}
	return ch
}

// buildPartitionFn compiles the partition faults into one link predicate,
// mirroring sim.Partition: cross-group frames drop during [From, To)
// (To = 0 never heals); unlisted nodes are unaffected.
func buildPartitionFn(netwk []FaultSpec, tick time.Duration) func(from, to types.NodeID, elapsed time.Duration) bool {
	type window struct {
		group      map[types.NodeID]int
		start, end time.Duration // end 0 = never heals
	}
	var windows []window
	for _, f := range netwk {
		if f.Type != FaultPartition {
			continue
		}
		w := window{
			group: make(map[types.NodeID]int),
			start: time.Duration(f.From) * tick,
			end:   time.Duration(f.To) * tick,
		}
		for i, g := range f.Groups {
			for _, n := range g {
				w.group[n] = i
			}
		}
		windows = append(windows, w)
	}
	if len(windows) == 0 {
		return nil
	}
	return func(from, to types.NodeID, elapsed time.Duration) bool {
		for _, w := range windows {
			if elapsed < w.start || (w.end != 0 && elapsed >= w.end) {
				continue
			}
			gf, okf := w.group[from]
			gt, okt := w.group[to]
			if okf && okt && gf != gt {
				return true
			}
		}
		return false
	}
}

func aggregateStats(per map[types.NodeID]transport.PeerStats) transport.PeerStats {
	var out transport.PeerStats
	for _, s := range per {
		out = addStats(out, s)
	}
	return out
}

func addStats(a, b transport.PeerStats) transport.PeerStats {
	return transport.PeerStats{
		Reconnects:      a.Reconnects + b.Reconnects,
		DroppedFrames:   a.DroppedFrames + b.DroppedFrames,
		ChaosDropped:    a.ChaosDropped + b.ChaosDropped,
		ChaosDuplicated: a.ChaosDuplicated + b.ChaosDuplicated,
	}
}
