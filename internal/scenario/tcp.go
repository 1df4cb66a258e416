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
	"tetrabft/internal/replica"
	"tetrabft/internal/shard"
	"tetrabft/internal/sim"
	"tetrabft/internal/trace"
	"tetrabft/internal/transport"
	"tetrabft/internal/types"
	"tetrabft/internal/wal"
)

// The TCP runner, runTCP, drives one cluster type: a tcpCluster of
// WAL-backed multishot replicas on localhost ports, one replica.Host per
// honest member, one cluster per cluster of the plan — the flat run's one,
// or a sharded run's S shard clusters plus the anchor cluster. The
// simulator keeps the same contract with simCluster (run.go). A tcpRun
// holds what the clusters of one run share.

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
// launch launches its hosts and begin starts them.
func (r *tcpRun) add(c *cluster, batch func(types.Slot, types.Time) [][]byte, log *trace.Log) *tcpCluster {
	cl := &tcpCluster{cluster: c, batch: batch, log: log, run: r}
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
		rep := cl.replica(f.Node)
		rep.required, rep.wipe = f.RestartAtMS > 0, f.WipeWAL
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
					marks = append(marks, fmt.Sprintf("%s:%d", cl.label("replica", rep.id), rep.host.Watermark()))
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
	addrs    map[types.NodeID]string // every replica's address, for its peers

	// commitAt records each slot's earliest wall-clock commit across every
	// replica and incarnation, feeding the per-transaction latency fold.
	commitMu sync.Mutex
	commitAt commits

	timers  []*time.Timer // the fault timers, armed by begin
	applied *appliedLog   // a sharded run's applied log, nil in a flat run
}

type tcpReplica struct {
	id      types.NodeID
	walDir  string
	mempool *blockchain.Mempool
	// required is false for a replica that crashes and never restarts: it
	// cannot reach the target and the run must not wait for it. wipe
	// relaunches it from an empty WAL.
	required, wipe bool

	host  *replica.Host // its watermark is what completion tracks
	store *wal.MultiWAL // the latest incarnation's, sized by the fold
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

// launchHost is replica.Launch, a variable so tests can see every host a
// run launches.
var launchHost = replica.Launch

// launch launches every replica's host, restored from its WAL's snapshot if
// there is one; on an error it closes the hosts it had launched.
func (cl *tcpCluster) launch() error {
	p := cl.run.p
	cl.addrs = make(map[types.NodeID]string, len(cl.replicas))
	for _, rep := range cl.replicas {
		h, err := launchHost(replica.Config{
			Node: multishot.Config{
				ID: rep.id, Quorum: cl.qs, Nodes: len(cl.members), Delta: p.delta(),
				TimeoutFactor: p.sc.TimeoutFactor, MaxSlot: cl.maxSlot,
				Window:  p.sc.Workload.Window,
				Payload: rep.mempool.PayloadSource(p.txsPerBlock()),
				Batch:   cl.batch,
				Tracer:  traced(cl.log), Metrics: cl.run.reg,
			},
			Runtime: transport.Config{Chaos: cl.run.chaos, Metrics: cl.run.reg},
			Open: func() (replica.Store, error) {
				if rep.wipe && rep.store != nil {
					if err := os.RemoveAll(rep.walDir); err != nil {
						return nil, err
					}
				}
				store, err := wal.OpenMulti(rep.walDir)
				if err == nil {
					rep.store = store
				}
				return store, err
			},
			OnDecide: func(node *multishot.Node, slot types.Slot) {
				ms := time.Since(cl.run.start).Milliseconds()
				cl.commitMu.Lock()
				cl.commitAt.note(slot, ms)
				cl.commitMu.Unlock()
				if cl.applied != nil {
					cl.applied.extend(node.FinalizedChain())
				}
				cl.run.wake()
			},
		})
		if err != nil {
			cl.close()
			return fmt.Errorf("scenario: launch %s: %w", cl.label("replica", rep.id), err)
		}
		rep.host = h
		cl.addrs[rep.id] = h.Addr()
	}
	return nil
}

// begin starts every replica and arms the crash-restart faults.
func (cl *tcpCluster) begin() {
	for _, rep := range cl.replicas {
		rep.host.Start(cl.addrs)
	}
	for _, c := range cl.crashes {
		rep := cl.replica(c.Node)
		cl.after(c.CrashAtMS, func() error {
			rep.host.Kill()
			return nil
		})
		if c.RestartAtMS > 0 {
			cl.after(c.RestartAtMS, func() error {
				if err := rep.host.Relaunch(); err != nil {
					return fmt.Errorf("scenario: restart %s: %w", cl.label("replica", rep.id), err)
				}
				return nil
			})
		}
	}
}

// after runs fn as a fault callback ms milliseconds from now. The fault is
// pending until fn has succeeded; a failure ends the run. Once the hosts
// are closed, a late callback does nothing.
func (cl *tcpCluster) after(ms int64, fn func() error) {
	cl.run.pending.Add(1)
	cl.timers = append(cl.timers, time.AfterFunc(time.Duration(ms)*time.Millisecond, func() {
		if err := fn(); err != nil {
			select {
			case cl.run.errCh <- err:
			default: // an earlier failure already ends the run
			}
			return
		}
		cl.run.pending.Add(-1)
		cl.run.wake()
	}))
}

// close stops the fault timers and closes every host, joining its
// goroutines. It may be called more than once.
func (cl *tcpCluster) close() {
	for _, t := range cl.timers {
		t.Stop()
	}
	for _, rep := range cl.replicas {
		if rep.host != nil {
			rep.host.Close()
		}
	}
}

// minFinalized is the lowest watermark across required replicas, 0 when
// none is required.
func (cl *tcpCluster) minFinalized() (low int64) {
	first := true
	for _, rep := range cl.replicas {
		if w := rep.host.Watermark(); rep.required && (first || w < low) {
			low, first = w, false
		}
	}
	return low
}

// fold closes the cluster — its event loops may still be delivering slots
// past the target, and multishot nodes have no internal locking — and sums
// it up into in and res, adding a flat run's per-replica fields, in node
// order: link health, the finalized slots and chains of the required
// replicas, and the trace. The reference chain is the longest. Chains may
// disagree in length (stragglers keep catching up) but never in content:
// each required replica's chain is checked against the reference over their
// shared prefix, like the simulator's agreement monitor does per slot, and a
// divergence comes back labelled with the scenario and cluster names. A
// replica that crashed for good is skipped there: its node was abandoned
// mid-run.
func (cl *tcpCluster) fold(res *Result, flat bool) (in foldInput, err error) {
	cl.close()
	collect := cl.run.p.sc.Collect
	in = foldInput{commitAt: cl.commitAt, finalized: -1}
	if cl.log != nil {
		in.stages = stageSamples(cl.log.Events())
	}
	var ref *tcpReplica
	for _, rep := range cl.replicas {
		if chain := rep.host.Node().FinalizedChain(); rep.required && (ref == nil || len(chain) > len(in.chain)) {
			ref, in.chain = rep, chain
		}
	}
	for _, rep := range cl.replicas {
		stats := rep.host.Stats()
		in.reconnects += stats.Reconnects
		in.droppedFrames += stats.DroppedFrames
		if size, err := rep.store.Size(); err == nil {
			res.MaxStorageBytes = max(res.MaxStorageBytes, size)
		}
		if flat {
			res.Transport = append(res.Transport, NodeTransport{
				Node: rep.id, Reconnects: stats.Reconnects, DroppedFrames: stats.DroppedFrames,
				ChaosDropped: stats.ChaosDropped, ChaosDuplicated: stats.ChaosDuplicated,
			})
		}
		if !rep.required {
			continue
		}
		node := rep.host.Node()
		chain := node.FinalizedChain()
		for i := range chain {
			if rep != ref && chain[i].ID() != in.chain[i].ID() {
				return in, cl.run.p.fail(cl.cluster, agreementError{fmt.Errorf("replicas %d and %d diverge at slot %d", ref.id, rep.id, chain[i].Slot)})
			}
		}
		if s := int64(node.FinalizedSlot()); in.finalized < 0 || s < in.finalized {
			in.finalized = s
		}
		if flat {
			res.Finalized = append(res.Finalized, NodeSlot{Node: rep.id, Slot: node.FinalizedSlot()})
			if collect.Chain {
				res.Chains = append(res.Chains, NodeChain{Node: rep.id, Blocks: chain})
			}
		}
	}
	if flat && collect.Trace {
		// Event-loop interleaving makes the raw append order nondeterministic;
		// sort by (time, node, type, slot) for a stable artifact.
		events := cl.log.Events()
		slices.SortStableFunc(events, func(a, b trace.Event) int {
			return cmp.Or(cmp.Compare(a.Time, b.Time), cmp.Compare(a.Node, b.Node), cmp.Compare(a.Type, b.Type), cmp.Compare(a.Slot, b.Slot))
		})
		res.Trace = events
	}
	return in, nil
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
	dep := newDeployment(p)
	defer dep.stream.Close() // after r.close: no event loop drains then
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
	for i, c := range p.clusters {
		batch, log := dep.feed(i)
		if cl := r.add(c, batch, log); dep.anchored() {
			cl.applied = dep.logs[i]
		}
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
		done = func() bool { return dep.done(func(i int) int64 { return r.clusters[i].minFinalized() }) }
		what = fmt.Sprintf("all shards finalized slot %d and anchored", target)
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
		if inputs[i], err = cl.fold(res, !dep.anchored()); err != nil {
			return nil, err
		}
	}
	return res, dep.fold(res, inputs, r.reg, nil)
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
