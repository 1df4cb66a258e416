package scenario

import (
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"tetrabft/internal/blockchain"
	"tetrabft/internal/shard"
	"tetrabft/internal/trace"
	"tetrabft/internal/types"
)

// launched lists the replicas of an n-member cluster that run: every member
// but the silent ones.
func launched(n int, silent map[types.NodeID]bool) []types.NodeID {
	var ids []types.NodeID
	for id := types.NodeID(0); int(id) < n; id++ {
		if !silent[id] {
			ids = append(ids, id)
		}
	}
	return ids
}

// shardCrashes collects the crash-restart fault schedule of one shard.
func shardCrashes(p *plan, s int) []FaultSpec {
	var out []FaultSpec
	for _, f := range p.sc.Faults {
		if f.Type == FaultCrashRestart && f.Shard == s {
			out = append(out, f)
		}
	}
	return out
}

// runShardTCP executes a sharded scenario over real TCP runtimes — the
// deployment shape of the service layer: S shard clusters plus the anchor
// cluster, an anchoring loop snapshotting shard logs through the event-loop
// fence (transport.Runtime.Do) into the anchor cluster's mempool, and —
// when onReady is non-nil — an HTTP gateway turning the whole thing into a
// load-testable key-value service. onReady receives the gateway's base URL
// once every cluster is listening and before the engine starts waiting for
// completion; the run then serves client traffic until the workload target
// and the anchoring loop are both satisfied.
func runShardTCP(p *plan, onReady func(url string)) (*Result, error) {
	sh := p.sc.Shards
	s := sh.count()
	r, err := newTCPRun(p)
	if err != nil {
		return nil, err
	}
	defer r.close()

	// Per-shard trace logs feed the stage fold; the anchor cluster's
	// lifecycle is mostly empty filler slots, so it stays untraced.
	loads := buildShardWorkload(p)
	logs := make([]*trace.Log, s)
	shards := make([]*tcpCluster, s)
	for i := range shards {
		cl := &tcpCluster{
			name: fmt.Sprintf("shard %d", i), nodes: sh.nodesPerShard(), maxSlot: p.maxSlot,
			perBlock: 8, batch: loads[i].batchSource(p.batchSize()),
		}
		if p.sc.Collect.Stages {
			logs[i] = &trace.Log{}
			cl.tracer = logs[i]
		}
		shards[i] = r.add(cl, launched(cl.nodes, shardSilent(p, i)), shardCrashes(p, i))
	}
	// The anchor cluster proposes without a slot cap — a cap would be
	// exhausted by pipelined empty blocks before late anchors arrive — and
	// its batch size admits every shard anchoring in the same round.
	anchorPool := blockchain.NewTimedMempool(0)
	anchor := r.add(&tcpCluster{
		name: "anchor cluster", nodes: sh.anchorNodes(),
		perBlock: 8, batch: anchorPool.BatchSource(s),
	}, launched(sh.anchorNodes(), nil), nil)
	if err := r.launch(); err != nil {
		return nil, err
	}

	a := startAnchoring(r, shards, anchorPool, time.Duration(sh.anchorInterval())*time.Millisecond)
	defer a.stop()
	// The gateway, when requested: clients route through it while the run
	// is live.
	if onReady != nil {
		gw, err := shard.NewGateway(s, &tcpGatewayBackend{shards: shards, anchor: anchor})
		if err != nil {
			return nil, err
		}
		defer gw.Close()
		onReady(gw.URL())
	}

	// Completion: every required shard replica at the slot target and —
	// only then worth the anchor-log scan — every submitted anchor
	// committed, at least one per shard.
	target := p.sc.Workload.Slots
	done := func() bool {
		for _, cl := range shards {
			if cl.minWatermark() < target {
				return false
			}
		}
		return a.committed(anchor)
	}
	if err := r.wait(done, fmt.Sprintf("all shards finalized slot %d and anchored", target)); err != nil {
		return nil, err
	}
	finishedAt := time.Since(r.start).Milliseconds()
	a.stop()

	// r.clusters holds the shards in order, then the anchor cluster.
	inputs := make([]shardFoldInput, s+1)
	var maxWAL int64
	for i, cl := range r.clusters {
		in, size, err := cl.fold()
		if err != nil {
			return nil, fmt.Errorf("scenario %q: %s: %w", p.sc.Name, cl.name, err)
		}
		if i < s && logs[i] != nil {
			in.stages = stageSamples(logs[i].Events())
		}
		inputs[i] = in
		maxWAL = max(maxWAL, size)
	}
	inputs, anchorIn := inputs[:s], inputs[s]
	res := foldShards(p, inputs, anchorIn, loads, a.submitAt, finishedAt)
	res.MaxStorageBytes = maxWAL
	if r.reg != nil {
		res.Metrics = r.reg.Snapshot()
	}
	if err := verifyShardAnchors(p, res, inputs, anchorIn); err != nil {
		return res, err
	}
	return res, nil
}

// anchoring is the sharded TCP run's anchoring loop: every interval it
// digests each shard log that grew and submits the anchor transaction into
// the anchor cluster's arrival-gated pool. One goroutine submits, so
// arrival times are ordered (the pool's contract).
type anchoring struct {
	mu       sync.Mutex // the completion check reads epochs mid-run
	epochs   []int64    // anchors submitted per shard
	submitAt map[string]types.Time
	stop     func() // ends the loop and waits for it; later calls return at once
}

func startAnchoring(r *tcpRun, shards []*tcpCluster, pool *blockchain.TimedMempool, interval time.Duration) *anchoring {
	a := &anchoring{epochs: make([]int64, len(shards)), submitAt: make(map[string]types.Time)}
	done, exited := make(chan struct{}), make(chan struct{})
	a.stop = sync.OnceFunc(func() {
		close(done)
		<-exited
	})
	go func() {
		defer close(exited)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		last := make([]int, len(shards)) // decided-log length last digested
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
			}
			for i, cl := range shards {
				chain, _ := cl.refChain()
				if len(chain) <= last[i] {
					continue
				}
				a.mu.Lock()
				a.epochs[i]++
				an := shard.Anchor{Shard: i, Epoch: a.epochs[i], Slots: int64(len(chain)),
					Digest: shard.PrefixDigest(chain, len(chain))}
				tx := an.Encode()
				at := types.Time(time.Since(r.start).Milliseconds())
				pool.Submit(at, tx)
				a.submitAt[string(tx)] = at
				a.mu.Unlock()
				last[i] = len(chain)
			}
			r.wake()
		}
	}()
	return a
}

// committed reports whether the anchor cluster has finalized every anchor
// submitted so far, and at least one per shard.
func (a *anchoring) committed(anchor *tcpCluster) bool {
	chain, _ := anchor.refChain()
	committed := committedEpochs(chain, len(a.epochs))
	a.mu.Lock()
	defer a.mu.Unlock()
	for i, e := range a.epochs {
		if e == 0 || committed[i] < e {
			return false
		}
	}
	return true
}

// tcpGatewayBackend adapts the live clusters to the gateway's Backend
// interface. Submissions ride a shard replica's ordinary mempool (the next
// block it proposes carries them); queries replay the shard's decided log
// into a fresh KV.
type tcpGatewayBackend struct {
	shards []*tcpCluster
	anchor *tcpCluster
}

// Submit implements shard.Backend: the key picks a replica (spreading
// proposer load), whose mempool-backed payload source carries the
// transaction into its next proposal. A replica that is down proposes
// nothing — and one crashed for good never will — so the key goes to the
// next live replica instead.
func (b *tcpGatewayBackend) Submit(shardIdx int, key, value string) error {
	cl := b.shards[shardIdx]
	h := fnv.New32a()
	h.Write([]byte(key))
	n := len(cl.replicas)
	first := int(h.Sum32()) % n
	for i := range n {
		rep := cl.replicas[(first+i)%n]
		if _, rt := cl.live(rep); rt == nil {
			continue
		}
		if !rep.mempool.Submit(blockchain.SetTx(key, value)) {
			return fmt.Errorf("shard %d replica %d: mempool full", shardIdx, rep.id)
		}
		return nil
	}
	return fmt.Errorf("shard %d: no live replica", shardIdx)
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
	anchorChain, _ := b.anchor.refChain()
	epochs := committedEpochs(anchorChain, len(b.shards))
	anchored := make([]int64, len(b.shards))
	for _, blk := range anchorChain {
		for _, tx := range blk.Txs {
			if a, ok := shard.DecodeAnchor(tx); ok && a.Shard < len(b.shards) && a.Slots > anchored[a.Shard] {
				anchored[a.Shard] = a.Slots
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
