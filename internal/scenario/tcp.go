package scenario

import (
	"cmp"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"tetrabft/internal/blockchain"
	"tetrabft/internal/multishot"
	"tetrabft/internal/obs"
	"tetrabft/internal/shard"
	"tetrabft/internal/sim"
	"tetrabft/internal/trace"
	"tetrabft/internal/transport"
	"tetrabft/internal/types"
	"tetrabft/internal/wal"
)

// The TCP runner, runTCP, drives one cluster type: a tcpCluster of
// WAL-backed multishot replicas on localhost ports, one per cluster of the
// plan — the flat run's one, or a sharded run's S shard clusters plus the
// anchor cluster. The simulator keeps the same contract with simCluster
// (run.go).
// add builds one from the plan's cluster, a batch source and a trace log
// (nil = untraced): one replica per honest member. launch starts every
// replica (WAL open → restored or fresh node → runtime) and wires the
// peers, and a launch that fails closes whatever it started; begin runs
// them and arms the crash-restart timers. kill hard-stops a replica the way
// a crashing process dies; relaunch brings it back on its old address from
// its WAL, or from nothing when the WAL is wiped. close stops the timers,
// waits for a fault callback already running and closes every runtime; a
// relaunch that finds the cluster closed closes what it started. fold,
// after close, checks shared-prefix agreement among the required replicas
// and sums the cluster up. What the clusters of one run share — WAL root,
// chaos policy, metrics, the pending-fault count and the completion wait —
// is a tcpRun.

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
		chaos: buildChaos(p),
		kick:  make(chan struct{}, 1), errCh: make(chan error, 1),
	}
	if p.sc.Collect.Metrics {
		r.reg = obs.NewRegistry()
	}
	return r, nil
}

// add registers cluster c with the run: one replica per honest member (a
// silent member never runs), each with its own mempool and WAL directory.
func (r *tcpRun) add(c *cluster, batch func(types.Slot, types.Time) [][]byte, log *trace.Log) *tcpCluster {
	cl := &tcpCluster{cluster: c, batch: batch, log: log, run: r, commitAt: make(map[types.Slot]int64)}
	dir := filepath.Join(r.walRoot, fmt.Sprintf("cluster-%d", len(r.clusters)))
	for _, id := range c.honest {
		cl.replicas = append(cl.replicas, &tcpReplica{
			id:       id,
			walDir:   filepath.Join(dir, fmt.Sprintf("replica-%d", id)),
			mempool:  blockchain.NewMempool(0),
			required: true,
		})
	}
	for _, f := range c.crashes {
		cl.replica(f.Node).required = f.RestartAtMS > 0
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
					marks = append(marks, fmt.Sprintf("%s:%d", cl.label("replica", rep.id), rep.watermark.Load()))
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

// tcpCluster is one cluster of a TCP run.
type tcpCluster struct {
	*cluster
	batch func(types.Slot, types.Time) [][]byte
	log   *trace.Log // nil = untraced

	run      *tcpRun
	replicas []*tcpReplica
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

// newRuntime is transport.New, a variable so tests can see every runtime a
// run makes.
var newRuntime = transport.New

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
		return incarnation{}, fmt.Errorf("%s: %w", cl.label("replica", rep.id), err)
	}
	p := cl.run.p
	cfg := multishot.Config{
		ID: rep.id, Quorum: cl.qs, Nodes: len(cl.members), Delta: p.delta(),
		TimeoutFactor: p.sc.TimeoutFactor, MaxSlot: cl.maxSlot,
		Window:  p.sc.Workload.Window,
		Payload: rep.mempool.PayloadSource(p.txsPerBlock()), Persist: store,
		Batch:  cl.batch,
		Tracer: traced(cl.log), Metrics: cl.run.reg,
	}
	var node *multishot.Node
	if found {
		node, err = multishot.Restore(cfg, state)
	} else {
		node, err = multishot.NewNode(cfg)
	}
	if err != nil {
		return incarnation{}, fmt.Errorf("%s: %w", cl.label("replica", rep.id), err)
	}
	listen := cl.addrs[rep.id]
	if listen == "" {
		listen = "127.0.0.1:0"
	}
	rt, err := newRuntime(node, transport.Config{
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
			return fmt.Errorf("scenario: launch %s: %w", cl.label("replica", rep.id), err)
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
			return fmt.Errorf("scenario: wipe wal of %s: %w", cl.label("replica", rep.id), err)
		}
	}
	inc, err := cl.start(rep)
	if err != nil {
		return fmt.Errorf("scenario: restart %s: %w", cl.label("replica", rep.id), err)
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

// minFinalized is the lowest finalized watermark across required replicas.
func (cl *tcpCluster) minFinalized() int64 {
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
// prefix, like the simulator's agreement monitor does per slot, and a
// divergence comes back labelled with the scenario and cluster names. A
// replica that crashed for good is skipped there: its node was abandoned
// mid-run.
func (cl *tcpCluster) fold() (in foldInput, maxWAL int64, err error) {
	cl.close()
	in = foldInput{commitAt: cl.commitAt, finalized: -1}
	if cl.log != nil {
		in.stages = stageSamples(cl.log.Events())
	}
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
				return in, maxWAL, cl.run.p.fail(cl.cluster, agreementError{fmt.Errorf("replicas %d and %d diverge at slot %d", ref.id, rep.id, chain[i].Slot)})
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

// runTCP executes a scenario over real TCP runtimes on localhost — the
// deployment shape — as one tcpCluster per cluster of the plan. Every
// replica persists through a WAL; crash-restart faults hard-kill replicas
// and relaunch them from it, and the network regime and partition faults
// drive a seeded frame-level chaos policy on every link. A flat run ends
// once every required replica has finalized Workload.Slots. A sharded run
// adds the anchoring loop and, when onReady is non-nil, an HTTP gateway
// that makes it a load-testable key-value service: onReady gets the base
// URL once every cluster listens, before the completion wait, and the run
// serves clients until every shard has finalized the target and anchored.
// Either fails after Stop.WallClockMS real milliseconds.
func runTCP(p *plan, onReady func(url string)) (*Result, error) {
	r, err := newTCPRun(p)
	if err != nil {
		return nil, err
	}
	defer r.close()

	// Each stream cluster shares one trace log across every replica (and
	// every incarnation): trace.Log is mutex-guarded, so the event loops
	// feed it concurrently. Event times and arrival times are transport
	// ticks ≈ milliseconds, so the folds downstream are the ones the
	// simulator uses, just in a different unit.
	dep := newDeployment(p)
	for i, c := range p.clusters {
		batch, log := dep.feed(i)
		dep.clusters = append(dep.clusters, r.add(c, batch, log))
	}
	for _, tx := range p.sc.Workload.Transactions {
		r.clusters[0].replica(tx.Node).mempool.Submit(buildTx(tx))
	}
	if err := r.launch(); err != nil {
		return nil, err
	}

	target := p.sc.Workload.Slots
	done := func() bool { return r.clusters[0].minFinalized() >= target }
	what := fmt.Sprintf("all replicas finalized slot %d", target)
	stop := func() {}
	if dep.anchored() {
		done, what = dep.done, fmt.Sprintf("all shards finalized slot %d and anchored", target)
		stop = startAnchoring(r, dep, time.Duration(p.sc.Shards.anchorInterval())*time.Millisecond)
		defer stop()
		// The gateway, when requested: clients route through it while the
		// run is live. r.clusters holds the shards in order, then the
		// anchor cluster.
		if onReady != nil {
			s := p.sc.Shards.Count
			gw, err := shard.NewGateway(s, &tcpGatewayBackend{shards: r.clusters[:s], anchor: r.clusters[s]})
			if err != nil {
				return nil, err
			}
			defer gw.Close()
			onReady(gw.URL())
		}
	}
	if err := r.wait(done, what); err != nil {
		return nil, err
	}
	res := &Result{Name: p.sc.Name, FinishedAt: time.Since(r.start).Milliseconds(), FirstDecisionAt: -1}
	stop()

	inputs := make([]foldInput, len(r.clusters))
	for i, cl := range r.clusters {
		in, size, err := cl.fold()
		if err != nil {
			return nil, err
		}
		inputs[i] = in
		res.MaxStorageBytes = max(res.MaxStorageBytes, size)
	}
	if !dep.anchored() {
		r.clusters[0].report(res)
	}
	return res, dep.fold(res, inputs, r.reg, nil)
}

// report adds a flat run's per-replica fields to res: link health, the
// finalized slots and chains of the required replicas, and the trace.
// Replicas are in member order, which is node order.
func (cl *tcpCluster) report(res *Result) {
	collect := cl.run.p.sc.Collect
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
		if collect.Chain {
			res.Chains = append(res.Chains, NodeChain{Node: rep.id, Blocks: rep.node.FinalizedChain()})
		}
	}
	if collect.Trace {
		// Event-loop interleaving makes the raw append order nondeterministic;
		// sort by (time, node, type, slot) for a stable artifact.
		events := cl.log.Events()
		slices.SortStableFunc(events, func(a, b trace.Event) int {
			return cmp.Or(cmp.Compare(a.Time, b.Time), cmp.Compare(a.Node, b.Node), cmp.Compare(a.Type, b.Type), cmp.Compare(a.Slot, b.Slot))
		})
		res.Trace = events
	}
}

// buildChaos maps the spec's network regime and partition faults onto the
// transport's deterministic frame-level chaos policy. Virtual ticks scale
// by transport.Tick. Returns nil when the links are clean.
func buildChaos(p *plan) *transport.Chaos {
	nw := p.sc.Network
	ch := &transport.Chaos{Seed: uint64(p.seed()), DupRate: nw.Duplicate, Partitioned: buildPartitionFn(p.netwk)}
	if nw.GST > 0 && nw.DropBeforeGST > 0 {
		ch.DropUntil, ch.DropUntilRate = time.Duration(nw.GST)*transport.Tick, nw.DropBeforeGST
	}
	if d := nw.Delay; d != nil {
		switch d.Model {
		case DelayUniform:
			ch.DelayMin = time.Duration(d.Min) * transport.Tick
			ch.DelayMax = time.Duration(d.Max) * transport.Tick
		default: // DelayConstant (per-link is rejected at compile)
			ch.DelayMin = time.Duration(d.D) * transport.Tick
			ch.DelayMax = ch.DelayMin
		}
	}
	if ch.DupRate == 0 && ch.DropUntil == 0 && ch.DelayMax == 0 && ch.Partitioned == nil {
		return nil
	}
	return ch
}

// buildPartitionFn compiles the partition faults into one link predicate
// over the simulator's own rule, sim.Partition, at now = elapsed / Tick:
// exact for the [From, To) bounds, which are whole ticks.
func buildPartitionFn(netwk []FaultSpec) func(from, to types.NodeID, elapsed time.Duration) bool {
	var parts []*sim.Partition
	for _, f := range netwk {
		if f.Type == FaultPartition {
			p := partitionOf(f)
			// One policy serves every replica's event loop, so the group map
			// Intercept builds on its first call inside [From, To) is built
			// here, before they share it.
			p.Intercept(0, 0, nil, p.From)
			parts = append(parts, p)
		}
	}
	if len(parts) == 0 {
		return nil
	}
	return func(from, to types.NodeID, elapsed time.Duration) bool {
		now := types.Time(elapsed / transport.Tick)
		for _, p := range parts {
			if p.Intercept(from, to, nil, now).Drop {
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
