package scenario

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"tetrabft/internal/blockchain"
	"tetrabft/internal/multishot"
	"tetrabft/internal/obs"
	"tetrabft/internal/shard"
	"tetrabft/internal/trace"
	"tetrabft/internal/transport"
	"tetrabft/internal/types"
	"tetrabft/internal/wal"
)

// The sharded TCP engine is the deployment shape of the service layer: S
// shard clusters plus the anchor cluster, each a set of WAL-backed replicas
// on their own localhost ports, an anchoring goroutine snapshotting shard
// logs through the event-loop fence (transport.Runtime.Do) and submitting
// digests into the anchor cluster's mempool, and — when requested via
// RunWithGateway — an HTTP gateway turning the whole thing into a
// load-testable key-value service.

// shardTCPCluster is one cluster (a shard, or the anchor) of a sharded TCP
// run.
type shardTCPCluster struct {
	// name labels error messages ("shard 3", "anchor cluster").
	name string
	// nodes is the cluster's membership size (silent replicas count toward
	// quorum math but never run).
	nodes    int
	replicas []*tcpReplica
	batch    func(types.Slot, types.Time) [][]byte // cluster-shared Config.Batch: a shard's stream, or the anchor pool
	// log collects the cluster's trace events for the stage fold
	// (Collect.Stages); nil when off, and always nil for the anchor cluster.
	log *trace.Log

	commitMu sync.Mutex
	commitAt map[types.Slot]int64
}

// refChain snapshots the first live replica's finalized chain through its
// event loop (the only safe way to read machine state mid-run). ok is false
// when every replica is down — distinct from a live replica whose chain is
// still empty (early in a run nothing has finalized yet, and conflating the
// two made the gateway 503 transiently).
func (cl *shardTCPCluster) refChain() (chain []types.Block, ok bool) {
	for _, rep := range cl.replicas {
		rep.mu.Lock()
		node, rt := rep.node, rep.runtime
		rep.mu.Unlock()
		if rt.Do(func() { chain = append([]types.Block(nil), node.FinalizedChain()...) }) {
			return chain, true
		}
	}
	return nil, false
}

// snapshotCommitAt copies the cluster's earliest-commit map.
func (cl *shardTCPCluster) snapshotCommitAt() map[types.Slot]int64 {
	cl.commitMu.Lock()
	defer cl.commitMu.Unlock()
	out := make(map[types.Slot]int64, len(cl.commitAt))
	for s, c := range cl.commitAt {
		out[s] = c
	}
	return out
}

// minWatermark is the lowest finalized watermark across required replicas.
func (cl *shardTCPCluster) minWatermark() int64 {
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

// shardCrashSchedule indexes the crash-restart faults by (shard, node).
func shardCrashSchedule(p *plan) map[[2]int]FaultSpec {
	out := make(map[[2]int]FaultSpec)
	for _, f := range p.sc.Faults {
		if f.Type == FaultCrashRestart {
			out[[2]int{f.Shard, int(f.Node)}] = f
		}
	}
	return out
}

// runShardTCP executes a sharded scenario over real TCP runtimes. onReady,
// when non-nil, receives the HTTP gateway's base URL once every cluster is
// listening and before the engine starts waiting for completion; the run
// then serves client traffic until the workload target and the anchoring
// loop are both satisfied.
func runShardTCP(p *plan, onReady func(url string)) (*Result, error) {
	sh := p.sc.Shards
	s := sh.count()
	target := types.Slot(p.sc.Workload.Slots)
	wallClock := time.Duration(p.sc.Stop.WallClockMS) * time.Millisecond
	if wallClock == 0 {
		wallClock = 30 * time.Second
	}
	tick := time.Millisecond

	walRoot, err := os.MkdirTemp("", "tetrabft-shard-wal-")
	if err != nil {
		return nil, fmt.Errorf("scenario: wal dir: %w", err)
	}
	defer os.RemoveAll(walRoot)

	loads := buildShardWorkload(p)
	anchorPool := blockchain.NewTimedMempool(0)
	crashes := shardCrashSchedule(p)
	start := time.Now()
	kick := make(chan struct{}, 1)
	errCh := make(chan error, len(crashes)*2+1)
	var pendingFaults atomic.Int64
	faultDone := func() {
		pendingFaults.Add(-1)
		select {
		case kick <- struct{}{}:
		default:
		}
	}
	chaos := buildChaos(p, tick)
	var reg *obs.Registry
	if p.sc.Collect.Metrics {
		reg = obs.NewRegistry()
	}

	// Build every cluster's replica set. Cluster index s is the anchor.
	clusters := make([]*shardTCPCluster, 0, s+1)
	for i := 0; i < s; i++ {
		cl := &shardTCPCluster{
			name: fmt.Sprintf("shard %d", i), nodes: sh.nodesPerShard(),
			batch: loads[i].batchSource(p.batchSize()), commitAt: make(map[types.Slot]int64),
		}
		if p.sc.Collect.Stages {
			cl.log = &trace.Log{}
		}
		clusters = append(clusters, cl)
	}
	// The anchor batch size admits every shard anchoring in the same round.
	anchorCl := &shardTCPCluster{
		name: "anchor cluster", nodes: sh.anchorNodes(),
		batch: anchorPool.BatchSource(s), commitAt: make(map[types.Slot]int64),
	}
	clusters = append(clusters, anchorCl)
	for ci, cl := range clusters {
		dir := filepath.Join(walRoot, "anchor")
		silent := map[types.NodeID]bool{}
		if ci < s {
			dir = filepath.Join(walRoot, fmt.Sprintf("shard-%d", ci))
			silent = shardSilent(p, ci)
		}
		for id := types.NodeID(0); int(id) < cl.nodes; id++ {
			if silent[id] {
				continue // a silent replica is simply never launched
			}
			c, willCrash := crashes[[2]int{ci, int(id)}]
			rep := &tcpReplica{
				id:       id,
				walDir:   filepath.Join(dir, fmt.Sprintf("replica-%d", id)),
				mempool:  blockchain.NewMempool(0),
				required: ci == s || !willCrash || c.RestartAtMS > 0,
			}
			cl.replicas = append(cl.replicas, rep)
		}
	}

	// newRuntime launches (or relaunches) one replica of one cluster. The
	// anchor cluster proposes without a slot cap — a cap would be exhausted
	// by pipelined empty blocks before late anchors arrive.
	newRuntime := func(cl *shardTCPCluster, rep *tcpReplica, restore bool) (*multishot.Node, *transport.Runtime, error) {
		store, err := wal.OpenMulti(rep.walDir)
		if err != nil {
			return nil, nil, err
		}
		maxSlot := p.maxSlot
		if cl == anchorCl {
			maxSlot = 0
		}
		cfg := multishot.Config{
			ID: rep.id, Nodes: cl.nodes, Delta: p.delta(),
			TimeoutFactor: p.sc.TimeoutFactor, MaxSlot: maxSlot,
			Window:  p.sc.Workload.Window,
			Payload: rep.mempool.PayloadSource(8),
			Batch:   cl.batch,
			Persist: store,
			Metrics: reg,
		}
		if cl.log != nil {
			cfg.Tracer = cl.log
		}
		var node *multishot.Node
		if restore {
			state, found, err := store.Load()
			if err != nil {
				return nil, nil, fmt.Errorf("%s replica %d: %w", cl.name, rep.id, err)
			}
			if found {
				node, err = multishot.Restore(cfg, state)
				if err != nil {
					return nil, nil, fmt.Errorf("%s replica %d: %w", cl.name, rep.id, err)
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

	closeAll := func() {
		for _, cl := range clusters {
			for _, rep := range cl.replicas {
				rep.mu.Lock()
				rt := rep.runtime
				rep.mu.Unlock()
				if rt != nil {
					rt.Close()
				}
			}
		}
	}
	defer closeAll()

	for _, cl := range clusters {
		for _, rep := range cl.replicas {
			node, rt, err := newRuntime(cl, rep, false)
			if err != nil {
				return nil, err
			}
			rep.node = node
			rep.runtime = rt
			rep.addr = rt.Addr()
		}
		addrs := make(map[types.NodeID]string, len(cl.replicas))
		for _, rep := range cl.replicas {
			addrs[rep.id] = rep.addr
		}
		for _, rep := range cl.replicas {
			rep.runtime.SetPeers(addrs)
		}
	}
	for _, cl := range clusters {
		for _, rep := range cl.replicas {
			rep.runtime.Run()
		}
	}

	// Fault schedule: per-(shard, node) crash-restart, same mechanics as
	// the flat TCP engine.
	var faultTimers []*time.Timer
	defer func() {
		for _, t := range faultTimers {
			t.Stop()
		}
	}()
	for key, c := range crashes {
		cl := clusters[key[0]]
		var rep *tcpReplica
		for _, r := range cl.replicas {
			if int(r.id) == key[1] {
				rep = r
			}
		}
		spec := c
		addrs := make(map[types.NodeID]string, len(cl.replicas))
		for _, r := range cl.replicas {
			addrs[r.id] = r.addr
		}
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
						errCh <- fmt.Errorf("scenario: wipe wal of %s replica %d: %w", cl.name, rep.id, err)
						return
					}
				}
				node, rt, err := newRuntime(cl, rep, !spec.WipeWAL)
				if err != nil {
					errCh <- fmt.Errorf("scenario: restart %s replica %d: %w", cl.name, rep.id, err)
					return
				}
				rt.SetPeers(addrs)
				rep.mu.Lock()
				rep.node = node
				rep.runtime = rt
				rep.mu.Unlock()
				// The recovered incarnation must re-prove the watermark
				// itself (restore + catch-up re-finalizes from slot 1).
				rep.watermark.Store(0)
				rt.Run()
				faultDone()
			}))
		}
	}

	// The anchoring loop: every interval, digest each shard log that grew
	// and submit the anchor transaction into the anchor cluster's
	// arrival-gated pool. One goroutine submits, so arrival times are
	// ordered (the pool's contract); epochs and submit times are shared
	// with the completion check and the fold under anchorMu.
	var anchorMu sync.Mutex
	epochs := make([]int64, s)
	lastAnchored := make([]int64, s)
	submitAt := make(map[string]types.Time)
	anchorStop := make(chan struct{})
	var stopAnchors sync.Once
	var anchorWG sync.WaitGroup
	anchorWG.Add(1)
	go func() {
		defer anchorWG.Done()
		ticker := time.NewTicker(time.Duration(sh.anchorInterval()) * tick)
		defer ticker.Stop()
		for {
			select {
			case <-anchorStop:
				return
			case <-ticker.C:
			}
			for i := 0; i < s; i++ {
				chain, _ := clusters[i].refChain()
				anchorMu.Lock()
				if int64(len(chain)) > lastAnchored[i] {
					epochs[i]++
					a := shard.Anchor{Shard: i, Epoch: epochs[i], Slots: int64(len(chain)),
						Digest: shard.PrefixDigest(chain, len(chain))}
					tx := a.Encode()
					at := types.Time(time.Since(start).Milliseconds())
					anchorPool.Submit(at, tx)
					submitAt[string(tx)] = at
					lastAnchored[i] = int64(len(chain))
				}
				anchorMu.Unlock()
			}
			select {
			case kick <- struct{}{}:
			default:
			}
		}
	}()
	defer func() {
		stopAnchors.Do(func() { close(anchorStop) })
		anchorWG.Wait()
	}()

	// The gateway, when requested: clients route through it while the run
	// is live.
	if onReady != nil {
		gw, err := shard.NewGateway(s, &tcpGatewayBackend{
			shards: clusters[:s], anchor: anchorCl,
		})
		if err != nil {
			return nil, err
		}
		defer gw.Close()
		onReady(gw.URL())
	}

	// Completion: every scheduled fault executed, every required shard
	// replica at the slot target, and — only then worth the anchor-log
	// scan — every submitted anchor committed, at least one per shard.
	deadline := time.After(wallClock)
	for {
		done := pendingFaults.Load() == 0
		if done {
			for _, cl := range clusters[:s] {
				for _, rep := range cl.replicas {
					if rep.required && rep.watermark.Load() < int64(target) {
						done = false
						break
					}
				}
			}
		}
		if done {
			anchorChain, _ := anchorCl.refChain()
			committed := committedEpochs(anchorChain, s)
			anchorMu.Lock()
			for i := 0; i < s; i++ {
				if epochs[i] == 0 || committed[i] < epochs[i] {
					done = false
					break
				}
			}
			anchorMu.Unlock()
		}
		if done {
			break
		}
		select {
		case <-kick:
		case err := <-errCh:
			return nil, err
		case <-deadline:
			marks := make([]string, 0, s)
			for i, cl := range clusters[:s] {
				marks = append(marks, fmt.Sprintf("shard%d:%d", i, cl.minWatermark()))
			}
			return nil, fmt.Errorf("scenario %q: timed out before all shards finalized slot %d and anchored (watermarks %v)", p.sc.Name, target, marks)
		}
	}
	finishedAt := time.Since(start).Milliseconds()
	stopAnchors.Do(func() { close(anchorStop) })
	anchorWG.Wait()
	closeAll()

	// Fold. Replica goroutines are joined, so node state is safe to read
	// directly. Within each cluster, chains may disagree in length but
	// never in content — check the shared prefix like the simulator's
	// agreement monitor does.
	inputs := make([]shardFoldInput, s)
	var anchorIn shardFoldInput
	var maxStorage int64
	for ci, cl := range clusters {
		var live []*tcpReplica
		for _, rep := range cl.replicas {
			if rep.required {
				live = append(live, rep)
			}
			stats := addStats(rep.prior, aggregateStats(rep.runtime.Stats()))
			if ci < s {
				inputs[ci].reconnects += stats.Reconnects
				inputs[ci].droppedFrames += stats.DroppedFrames
			}
			if store, err := wal.OpenMulti(rep.walDir); err == nil {
				if size, err := store.Size(); err == nil && size > maxStorage {
					maxStorage = size
				}
			}
		}
		if len(live) == 0 {
			return nil, fmt.Errorf("scenario %q: no %s replica is required to finish", p.sc.Name, cl.name)
		}
		ref := live[0].node.FinalizedChain()
		minFinalized := int64(-1)
		for _, rep := range live {
			if f := int64(rep.node.FinalizedSlot()); minFinalized < 0 || f < minFinalized {
				minFinalized = f
			}
			chain := rep.node.FinalizedChain()
			for i := range chain {
				if rep != live[0] && i < len(ref) && chain[i].ID() != ref[i].ID() {
					return nil, fmt.Errorf("scenario %q: %w", p.sc.Name, agreementError{
						fmt.Errorf("%s: replicas %d and %d diverge at slot %d", cl.name, live[0].id, rep.id, chain[i].Slot),
					})
				}
			}
		}
		in := shardFoldInput{chain: ref, commitAt: cl.snapshotCommitAt(), finalized: minFinalized}
		if ci < s {
			in.reconnects, in.droppedFrames = inputs[ci].reconnects, inputs[ci].droppedFrames
			if cl.log != nil {
				in.stages = stageSamples(cl.log.Events())
			}
			inputs[ci] = in
		} else {
			anchorIn = in
		}
	}
	anchorMu.Lock()
	res := foldShards(p, inputs, anchorIn, loads, submitAt, finishedAt)
	anchorMu.Unlock()
	res.MaxStorageBytes = maxStorage
	if reg != nil {
		res.Metrics = reg.Snapshot()
	}
	if err := verifyShardAnchors(p, res, inputs, anchorIn); err != nil {
		return res, err
	}
	return res, nil
}

// tcpGatewayBackend adapts the live clusters to the gateway's Backend
// interface. Submissions ride a shard replica's ordinary mempool (the next
// block it proposes carries them); queries replay the shard's decided log
// into a fresh KV.
type tcpGatewayBackend struct {
	shards []*shardTCPCluster
	anchor *shardTCPCluster
}

// Submit implements shard.Backend: the key picks a replica (spreading
// proposer load), whose mempool-backed payload source carries the
// transaction into its next proposal.
func (b *tcpGatewayBackend) Submit(shardIdx int, key, value string) error {
	cl := b.shards[shardIdx]
	h := fnv.New32a()
	h.Write([]byte(key))
	rep := cl.replicas[int(h.Sum32())%len(cl.replicas)]
	if !rep.mempool.Submit(blockchain.SetTx(key, value)) {
		return fmt.Errorf("shard %d replica %d: mempool full", shardIdx, rep.id)
	}
	return nil
}

// Query implements shard.Backend: snapshot the shard's decided log and
// replay the block payloads (gateway submissions) into a KV.
func (b *tcpGatewayBackend) Query(shardIdx int, key string) (string, bool, error) {
	chain, live := b.shards[shardIdx].refChain()
	if !live {
		return "", false, fmt.Errorf("shard %d: no live replica", shardIdx)
	}
	kv := blockchain.NewKV()
	for _, blk := range chain {
		kv.ApplyBlock(blk)
	}
	v, ok := kv.Get(key)
	return v, ok, nil
}

// Status implements shard.Backend.
func (b *tcpGatewayBackend) Status() shard.Status {
	st := shard.Status{AnchorFinalized: b.anchor.minWatermark()}
	epochs := make([]int64, len(b.shards))
	anchored := make([]int64, len(b.shards))
	anchorChain, _ := b.anchor.refChain()
	for _, blk := range anchorChain {
		for _, tx := range blk.Txs {
			if a, ok := shard.DecodeAnchor(tx); ok && a.Shard < len(b.shards) {
				if a.Epoch > epochs[a.Shard] {
					epochs[a.Shard] = a.Epoch
				}
				if a.Slots > anchored[a.Shard] {
					anchored[a.Shard] = a.Slots
				}
			}
		}
	}
	for i, cl := range b.shards {
		var txs int64
		chain, _ := cl.refChain()
		for _, blk := range chain {
			txs += int64(blk.NumTxs())
		}
		st.Shards = append(st.Shards, shard.ShardStatus{
			Shard: i, Finalized: cl.minWatermark(), DecidedTxs: txs,
			AnchoredSlots: anchored[i],
		})
		st.AnchorEpochs += epochs[i]
	}
	return st
}

// RunWithGateway runs a sharded EngineTCP scenario and passes the HTTP
// gateway's base URL to onReady once the service is accepting requests; the
// call then blocks until the run completes, exactly like Run. onReady runs
// on the engine's goroutine before the completion wait — it may spawn
// clients and return, or drive traffic inline (replica event loops make
// progress on their own goroutines).
func RunWithGateway(sc Scenario, onReady func(url string)) (*Result, error) {
	p, err := sc.compile()
	if err != nil {
		return nil, err
	}
	if sc.Shards == nil || sc.Engine != EngineTCP {
		return nil, fmt.Errorf("scenario: the gateway needs a sharded engine %q run", EngineTCP)
	}
	return runShardTCP(p, onReady)
}
