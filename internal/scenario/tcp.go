package scenario

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tetrabft/internal/blockchain"
	"tetrabft/internal/multishot"
	"tetrabft/internal/obs"
	"tetrabft/internal/trace"
	"tetrabft/internal/transport"
	"tetrabft/internal/types"
	"tetrabft/internal/wal"
)

// tcpReplica is one WAL-backed replica of a TCP run. node and runtime are
// swapped on crash-restart; mu guards the swap against the scheduling
// goroutines and the final collection pass.
type tcpReplica struct {
	id      types.NodeID
	addr    string // pinned listen address, reused across restarts
	walDir  string
	mempool *blockchain.Mempool

	mu      sync.Mutex
	node    *multishot.Node
	runtime *transport.Runtime
	// prior accumulates the link counters of killed runtimes so Result
	// reports the whole replica lifetime, not just the last incarnation.
	prior transport.PeerStats

	// watermark is the highest finalized slot observed via OnDecide. A
	// restarted replica re-finalizes from slot 1, so completion tracks the
	// maximum rather than counting decision events.
	watermark atomic.Int64
	// required is false for a replica that crashes and never restarts: it
	// cannot reach the target and the run must not wait for it.
	required bool
}

// runTCP executes a multi-shot scenario over real TCP runtimes on
// localhost — the deployment shape. Every replica persists through a WAL
// under a run-scoped directory; the fault schedule can hard-kill replicas
// mid-stream and relaunch them from that WAL (FaultCrashRestart), and the
// network regime plus partition faults drive a seeded frame-level chaos
// policy on every link. The run ends when every required replica has
// finalized Workload.Slots, or errors after Stop.WallClockMS real
// milliseconds.
func runTCP(p *plan) (*Result, error) {
	target := types.Slot(p.sc.Workload.Slots)
	wallClock := time.Duration(p.sc.Stop.WallClockMS) * time.Millisecond
	if wallClock == 0 {
		wallClock = 30 * time.Second
	}
	tick := time.Millisecond // transport default; chaos windows scale by it

	walRoot, err := os.MkdirTemp("", "tetrabft-wal-")
	if err != nil {
		return nil, fmt.Errorf("scenario: wal dir: %w", err)
	}
	defer os.RemoveAll(walRoot)

	// One shared trace log and metrics registry across every replica (and
	// every incarnation): trace.Log is mutex-guarded and the registry is
	// atomics, so the event-loop goroutines feed them concurrently. Event
	// times are transport ticks ≈ milliseconds, so the stage fold downstream
	// is the same one the simulator uses, just in a different unit.
	var log *trace.Log
	var tracer trace.Tracer
	if p.sc.Collect.Trace || p.sc.Collect.Stages {
		log = &trace.Log{}
		tracer = log
	}
	var reg *obs.Registry
	if p.sc.Collect.Metrics {
		reg = obs.NewRegistry()
	}

	crashByID := make(map[types.NodeID]FaultSpec, len(p.crashes))
	for _, c := range p.crashes {
		crashByID[c.Node] = c
	}

	per := p.sc.Workload.TxsPerBlock
	if per == 0 {
		per = 8
	}
	// One cluster-shared offered-load stream (Workload.TxCount), exactly as
	// on the simulator; arrival times are in ticks = transport milliseconds.
	load := p.offeredLoad()
	// commitAt records the earliest wall-clock commit of each slot across
	// all replica incarnations, feeding the per-transaction latency fold.
	var commitMu sync.Mutex
	commitAt := make(map[types.Slot]int64)
	start := time.Now()
	// kick wakes the completion loop after any progress; errCh carries
	// failures from the restart goroutines. pendingFaults holds the run
	// open until every scheduled crash and restart has actually executed —
	// a cluster fast enough to finalize the target before the first crash
	// fires must still live through the fault schedule.
	kick := make(chan struct{}, 1)
	errCh := make(chan error, len(p.crashes)+1)
	var pendingFaults atomic.Int64
	faultDone := func() {
		pendingFaults.Add(-1)
		select {
		case kick <- struct{}{}:
		default:
		}
	}

	var replicas []*tcpReplica
	byID := make(map[types.NodeID]*tcpReplica)
	for _, id := range p.honest {
		c, crashes := crashByID[id]
		rep := &tcpReplica{
			id:       id,
			walDir:   filepath.Join(walRoot, fmt.Sprintf("replica-%d", id)),
			mempool:  blockchain.NewMempool(0),
			required: !crashes || c.RestartAtMS > 0,
		}
		replicas = append(replicas, rep)
		byID[id] = rep
	}

	chaos := buildChaos(p, tick)
	newRuntime := func(rep *tcpReplica, restore bool) (*multishot.Node, *transport.Runtime, error) {
		store, err := wal.OpenMulti(rep.walDir)
		if err != nil {
			return nil, nil, err
		}
		cfg := multishot.Config{
			ID: rep.id, Quorum: p.qs, Nodes: len(p.members), Delta: p.delta(),
			TimeoutFactor: p.sc.TimeoutFactor, MaxSlot: p.maxSlot,
			Window:  p.sc.Workload.Window,
			Payload: rep.mempool.PayloadSource(per), Persist: store,
			Batch:  load.batchSource(p.batchSize()),
			Tracer: tracer, Metrics: reg,
		}
		var node *multishot.Node
		if restore {
			state, found, err := store.Load()
			if err != nil {
				return nil, nil, fmt.Errorf("replica %d: %w", rep.id, err)
			}
			if found {
				node, err = multishot.Restore(cfg, state)
				if err != nil {
					return nil, nil, fmt.Errorf("replica %d: %w", rep.id, err)
				}
			}
		}
		if node == nil {
			node, err = multishot.NewNode(cfg)
			if err != nil {
				return nil, nil, err
			}
		}
		listen := rep.addr
		if listen == "" {
			listen = "127.0.0.1:0"
		}
		rt, err := transport.New(node, transport.Config{
			ListenAddr: listen,
			Chaos:      chaos,
			Metrics:    reg,
			OnDecide: func(slot types.Slot, _ types.Value) {
				ms := time.Since(start).Milliseconds()
				commitMu.Lock()
				if c, ok := commitAt[slot]; !ok || ms < c {
					commitAt[slot] = ms
				}
				commitMu.Unlock()
				for {
					cur := rep.watermark.Load()
					if int64(slot) <= cur || rep.watermark.CompareAndSwap(cur, int64(slot)) {
						break
					}
				}
				select {
				case kick <- struct{}{}:
				default:
				}
			},
		})
		if err != nil {
			return nil, nil, err
		}
		return node, rt, nil
	}

	for _, rep := range replicas {
		node, rt, err := newRuntime(rep, false)
		if err != nil {
			return nil, err
		}
		rep.node = node
		rep.runtime = rt
		rep.addr = rt.Addr()
	}
	closeAll := func() {
		for _, rep := range replicas {
			rep.mu.Lock()
			rt := rep.runtime
			rep.mu.Unlock()
			rt.Close()
		}
	}
	defer closeAll()

	addrs := make(map[types.NodeID]string, len(replicas))
	for _, rep := range replicas {
		addrs[rep.id] = rep.addr
	}
	for _, rep := range replicas {
		rep.runtime.SetPeers(addrs)
	}
	for _, tx := range p.sc.Workload.Transactions {
		rep := byID[tx.Node]
		if rep == nil {
			return nil, fmt.Errorf("scenario: transaction targets faulty node %d", tx.Node)
		}
		rep.mempool.Submit(buildTx(tx))
	}

	for _, rep := range replicas {
		rep.runtime.Run()
	}

	// Fault schedule: hard-kill at CrashAtMS (listener gone, connections
	// reset mid-stream), relaunch from the WAL at RestartAtMS. The
	// relaunch rebinds the replica's original address so peers' reconnect
	// loops find it again.
	var faultTimers []*time.Timer
	defer func() {
		for _, t := range faultTimers {
			t.Stop()
		}
	}()
	for _, c := range crashByID {
		rep := byID[c.Node]
		spec := c
		pendingFaults.Add(1)
		faultTimers = append(faultTimers, time.AfterFunc(time.Duration(spec.CrashAtMS)*time.Millisecond, func() {
			rep.mu.Lock()
			rt := rep.runtime
			rep.mu.Unlock()
			rt.Kill()
			rep.mu.Lock()
			rep.prior = addStats(rep.prior, aggregateStats(rt.Stats()))
			rep.mu.Unlock()
			faultDone()
		}))
		if spec.RestartAtMS > 0 {
			pendingFaults.Add(1)
			faultTimers = append(faultTimers, time.AfterFunc(time.Duration(spec.RestartAtMS)*time.Millisecond, func() {
				if spec.WipeWAL {
					if err := os.RemoveAll(rep.walDir); err != nil {
						errCh <- fmt.Errorf("scenario: wipe wal of replica %d: %w", rep.id, err)
						return
					}
				}
				node, rt, err := newRuntime(rep, !spec.WipeWAL)
				if err != nil {
					errCh <- fmt.Errorf("scenario: restart replica %d: %w", rep.id, err)
					return
				}
				rt.SetPeers(addrs)
				rep.mu.Lock()
				rep.node = node
				rep.runtime = rt
				rep.mu.Unlock()
				// The recovered incarnation must re-prove the watermark
				// itself (restore + catch-up re-finalizes from slot 1);
				// pre-crash progress doesn't count.
				rep.watermark.Store(0)
				rt.Run()
				faultDone()
			}))
		}
	}

	deadline := time.After(wallClock)
	for {
		done := pendingFaults.Load() == 0
		for _, rep := range replicas {
			if rep.required && rep.watermark.Load() < int64(target) {
				done = false
				break
			}
		}
		if done {
			break
		}
		select {
		case <-kick:
		case err := <-errCh:
			return nil, err
		case <-deadline:
			marks := make([]string, 0, len(replicas))
			for _, rep := range replicas {
				marks = append(marks, fmt.Sprintf("%d:%d", rep.id, rep.watermark.Load()))
			}
			return nil, fmt.Errorf("scenario %q: timed out before all replicas finalized slot %d (watermarks %v)", p.sc.Name, target, marks)
		}
	}
	// Quiesce before touching node state: the event loops may still be
	// delivering slots past the target, and multishot nodes have no
	// internal locking. Close joins every runtime goroutine (the deferred
	// closeAll becomes a no-op).
	finishedAt := time.Since(start).Milliseconds()
	closeAll()

	res := &Result{
		Name:            p.sc.Name,
		FinishedAt:      finishedAt,
		FirstDecisionAt: -1,
	}
	// Chains may disagree in length (stragglers keep catching up) but never
	// in content — check the shared prefix like the simulator's agreement
	// monitor does per slot. A never-restarted crashed replica is skipped:
	// its node was abandoned mid-run.
	var live []*tcpReplica
	for _, rep := range replicas {
		if rep.required {
			live = append(live, rep)
		}
	}
	if len(live) == 0 {
		return nil, fmt.Errorf("scenario %q: no replica is required to finish", p.sc.Name)
	}
	ref := live[0].node.FinalizedChain()
	for _, rep := range live {
		res.Finalized = append(res.Finalized, NodeSlot{Node: rep.id, Slot: rep.node.FinalizedSlot()})
		chain := rep.node.FinalizedChain()
		for i := range chain {
			if rep != live[0] && i < len(ref) && chain[i].ID() != ref[i].ID() {
				return nil, fmt.Errorf("scenario %q: %w", p.sc.Name, agreementError{
					fmt.Errorf("replicas %d and %d diverge at slot %d", live[0].id, rep.id, chain[i].Slot),
				})
			}
		}
		if p.sc.Collect.Chain {
			res.Chains = append(res.Chains, NodeChain{Node: rep.id, Blocks: chain})
		}
	}
	for _, rep := range replicas {
		stats := addStats(rep.prior, aggregateStats(rep.runtime.Stats()))
		res.Transport = append(res.Transport, NodeTransport{
			Node:            rep.id,
			Reconnects:      stats.Reconnects,
			DroppedFrames:   stats.DroppedFrames,
			ChaosDropped:    stats.ChaosDropped,
			ChaosDuplicated: stats.ChaosDuplicated,
		})
		store, err := wal.OpenMulti(rep.walDir)
		if err != nil {
			continue
		}
		if size, err := store.Size(); err == nil && size > res.MaxStorageBytes {
			res.MaxStorageBytes = size
		}
	}
	sort.Slice(res.Transport, func(i, j int) bool { return res.Transport[i].Node < res.Transport[j].Node })
	res.OfferedTxs = len(load.arrivals)
	res.txStats(ref, commitAt, load.arrivals)
	if p.sc.Collect.Chain && len(live) > 0 {
		res.Chain = ref
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
	if reg != nil {
		res.Metrics = reg.Snapshot()
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
