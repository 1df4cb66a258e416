package scenario

import (
	"fmt"
	"sync"

	"tetrabft/internal/blockchain"
	"tetrabft/internal/obs"
	"tetrabft/internal/shard"
	"tetrabft/internal/trace"
	"tetrabft/internal/types"
	"tetrabft/internal/workload"
)

// A sharded run is S shard clusters plus the anchor cluster (plan.clusters)
// and one protocol on top of them, written here once for both engines: the
// workload split (buildShardWorkload), the anchoring round, the completion
// rule and the fold (sharded). The engines differ only in how they drive it.
//
// The simulator runs the S+1 clusters as independent runners advanced in
// lockstep: one goroutine drives every runner to the same virtual instant
// (a quantum of shards.anchor_interval ticks), then performs the anchoring
// round at that instant and checks completion. Because nothing ever runs
// concurrently, a sharded sim run is exactly as deterministic as a plain
// one: same spec + same seed = byte-identical result at any GOMAXPROCS. The
// TCP engine (shard_tcp.go) runs the round from a ticker goroutine and the
// completion check from its wait loop.

// shardCluster is what the sharded protocol reads from a cluster of either
// engine: its reference finalized chain and the slot every required
// replica has finalized.
type shardCluster interface {
	refChain() ([]types.Block, bool)
	minFinalized() int64
}

// buildShardWorkload splits the global offered-load stream across shards.
// Workload.TxCount and TxRate (or Arrival.Rate) are per shard, so the
// service-wide stream is S × both — one plan.offeredSchedule call shared
// with the flat engines. Legacy tx_rate streams pin transaction j
// round-robin (j mod S, exactly equal per-shard rate) unless the cross-mix
// says it roams — then its synthetic account key is placed by the gateway's
// own router, modeling realistic imbalance. Arrival-process streams route
// every transaction by its cohort key instead: small cohort key spaces
// concentrate on few shards (hot-shard workloads) and the cross-mix knob is
// subsumed by key placement. Each shard's stream stays in arrival order.
func buildShardWorkload(p *plan) []*offered {
	sh := p.sc.Shards
	s := sh.Count
	scheds := make([][]workload.Arrival, s)
	router := shard.Router{Shards: s}
	roamPct := int(sh.CrossMix*100 + 0.5)
	byKey := p.sc.Workload.Arrival != nil
	for j, a := range p.offeredSchedule(s*p.sc.Workload.TxCount, s) {
		home := j % s
		if byKey || j%100 < roamPct {
			home = router.Shard(a.Key)
		}
		scheds[home] = append(scheds[home], a)
	}
	loads := make([]*offered, s)
	for i, sched := range scheds {
		loads[i] = newOffered(sched)
	}
	return loads
}

// sharded is the sharded protocol's state, the same on both engines.
type sharded struct {
	p        *plan
	clusters []shardCluster           // the shards in order, then the anchor cluster
	loads    []*offered               // each shard's part of the offered load
	pool     *blockchain.TimedMempool // the anchor cluster's arrival-gated pool
	last     []int                    // decided-log length last digested per shard
	submitAt map[string]types.Time    // anchor transaction → submit time

	// mu guards epochs, the anchors submitted per shard: on TCP the
	// completion check reads them while the ticker goroutine runs rounds.
	// Chain reads, which block on a replica's event loop, stay outside it.
	mu     sync.Mutex
	epochs []int64
}

func newSharded(p *plan) *sharded {
	s := p.sc.Shards.Count
	return &sharded{
		p: p, loads: buildShardWorkload(p), pool: blockchain.NewTimedMempool(0),
		epochs: make([]int64, s), last: make([]int, s), submitAt: make(map[string]types.Time),
	}
}

// feed is what cluster i of the plan proposes from and traces to. A shard
// draws batches from its part of the offered load and is traced when
// stages are collected. The anchor cluster draws from the anchor pool, with
// room for every shard anchoring in the same round, and stays untraced:
// its lifecycle is mostly empty filler slots.
func (sd *sharded) feed(i int) (func(types.Slot, types.Time) [][]byte, *trace.Log) {
	if i == len(sd.loads) {
		return sd.pool.BatchSource(len(sd.loads)), nil
	}
	var log *trace.Log
	if sd.p.sc.Collect.Stages {
		log = &trace.Log{}
	}
	return sd.loads[i].batchSource(sd.p.batchSize()), log
}

// round is one anchoring round at time at: each shard whose decided log
// grew since the last round gets its next epoch, whose anchor — the digest
// of the whole log — is submitted into the anchor pool. One caller at a
// time, in time order (the pool's contract).
func (sd *sharded) round(at types.Time) {
	for i, cl := range sd.clusters[:len(sd.loads)] {
		chain, _ := cl.refChain()
		if len(chain) <= sd.last[i] {
			continue
		}
		sd.mu.Lock()
		sd.epochs[i]++
		sd.mu.Unlock()
		a := shard.Anchor{Shard: i, Epoch: sd.epochs[i], Slots: int64(len(chain)),
			Digest: shard.PrefixDigest(chain, len(chain))}
		tx := a.Encode()
		sd.pool.Submit(at, tx)
		sd.submitAt[string(tx)] = at
		sd.last[i] = len(chain)
	}
}

// done is the completion rule: every shard has finalized the slot target
// and — only then worth the anchor-log scan — the anchor cluster has
// committed every anchor submitted so far, at least one per shard.
func (sd *sharded) done() bool {
	s := len(sd.loads)
	for _, cl := range sd.clusters[:s] {
		if cl.minFinalized() < sd.p.sc.Workload.Slots {
			return false
		}
	}
	chain, _ := sd.clusters[s].refChain()
	committed, _ := anchorProgress(chain, s)
	sd.mu.Lock()
	defer sd.mu.Unlock()
	for i, e := range sd.epochs {
		if e == 0 || committed[i] < e {
			return false
		}
	}
	return true
}

// fold builds the sharded Result from every cluster's fold (the shards in
// order, then the anchor cluster): the per-shard and aggregate
// measurements, the metrics snapshot, then — unless runErr already failed
// the run — the cross-shard consistency check.
func (sd *sharded) fold(inputs []shardFoldInput, finishedAt int64, reg *obs.Registry, runErr error) (*Result, error) {
	shards, anchorIn := inputs[:len(sd.loads)], inputs[len(sd.loads)]
	res := foldShards(sd.p, shards, anchorIn, sd.loads, sd.submitAt, finishedAt)
	if reg != nil {
		res.Metrics = reg.Snapshot()
	}
	if runErr != nil {
		return res, runErr
	}
	return res, verifyShardAnchors(sd.p, res, shards, anchorIn)
}

func runShardSim(p *plan) (*Result, error) {
	var reg *obs.Registry
	if p.sc.Collect.Metrics {
		reg = obs.NewRegistry()
	}
	sd := newSharded(p)
	clusters := make([]*simCluster, len(p.clusters))
	for i, c := range p.clusters {
		batch, log := sd.feed(i)
		cl, err := newSimCluster(p, c, batch, log, reg)
		if err != nil {
			return nil, err
		}
		clusters[i] = cl
		sd.clusters = append(sd.clusters, cl)
	}

	// Lockstep quanta: advance everyone to t, anchor what grew, check
	// completion.
	quantum := types.Time(p.sc.Shards.anchorInterval())
	horizon := types.Time(p.sc.Stop.Horizon)
	var t types.Time
	var runErr error
loop:
	for {
		t = min(t+quantum, horizon)
		for _, cl := range clusters {
			if err := cl.r.Run(t, nil); err != nil {
				runErr = fmt.Errorf("scenario %q: %w", p.sc.Name, err)
				break loop
			}
		}
		sd.round(t)
		if sd.done() || t >= horizon {
			break
		}
	}

	inputs := make([]shardFoldInput, len(clusters))
	for i, cl := range clusters {
		in, err := cl.fold(p)
		if runErr == nil {
			runErr = err
		}
		inputs[i] = in
	}
	res, err := sd.fold(inputs, int64(t), reg, runErr)
	for _, cl := range clusters {
		res.Events += cl.r.Events()
		res.TotalSentBytes += cl.r.TotalSentBytes()
		res.Dropped += cl.r.DroppedMessages()
	}
	return res, err
}

// anchorProgress scans the anchor cluster's decided log and returns, per
// shard, the highest epoch committed and the longest prefix anchored
// (well-formedness is checked at fold time; here malformed transactions
// are simply not progress).
func anchorProgress(anchorChain []types.Block, s int) (epochs, slots []int64) {
	epochs, slots = make([]int64, s), make([]int64, s)
	for _, b := range anchorChain {
		for _, tx := range b.Txs {
			if a, ok := shard.DecodeAnchor(tx); ok && a.Shard < s {
				epochs[a.Shard] = max(epochs[a.Shard], a.Epoch)
				slots[a.Shard] = max(slots[a.Shard], a.Slots)
			}
		}
	}
	return epochs, slots
}

// shardFoldInput is what the fold needs from one cluster, engine-neutral:
// the TCP engine supplies the same shape from its live runtimes.
type shardFoldInput struct {
	chain    []types.Block
	commitAt map[types.Slot]int64
	// finalized is the min finalized slot across the cluster's honest
	// replicas.
	finalized int64
	// reconnects and droppedFrames are TCP link counters (zero on sim).
	reconnects, droppedFrames int64
	// stages holds the cluster's per-stage latency samples (Collect.Stages);
	// nil when stage collection is off.
	stages map[string][]int64
}

// foldShards assembles the per-shard and aggregate measurements shared by
// both engines.
func foldShards(p *plan, inputs []shardFoldInput, anchorIn shardFoldInput, loads []*offered, submitAt map[string]types.Time, finishedAt int64) *Result {
	res := &Result{
		Name:            p.sc.Name,
		FinishedAt:      finishedAt,
		FirstDecisionAt: -1,
	}
	for _, load := range loads {
		res.OfferedTxs += len(load.at)
	}
	var allLats []int64
	pooledStages := make(map[string][]int64)
	stagesOn := false
	for i, in := range inputs {
		txs, lats := txLatencies(in.chain, in.commitAt, loads[i])
		p50, p99 := latencyPercentiles(lats)
		sr := ShardResult{
			Shard: i, Finalized: in.finalized, DecidedTxs: txs,
			TxLatencyP50: p50, TxLatencyP99: p99,
			Reconnects: in.reconnects, DroppedFrames: in.droppedFrames,
		}
		if in.stages != nil {
			stagesOn = true
			sr.Stages = stageDists(in.stages)
			for stage, lats := range in.stages {
				pooledStages[stage] = append(pooledStages[stage], lats...)
			}
		}
		res.Shards = append(res.Shards, sr)
		res.DecidedTxs += txs
		allLats = append(allLats, lats...)
	}
	res.TxLatencyP50, res.TxLatencyP99 = latencyPercentiles(allLats)
	if stagesOn {
		res.Stages = stageDists(pooledStages)
	}

	var anchorLats []int64
	for _, b := range anchorIn.chain {
		c, ok := anchorIn.commitAt[b.Slot]
		if !ok {
			continue
		}
		for _, tx := range b.Txs {
			if at, ok := submitAt[string(tx)]; ok {
				anchorLats = append(anchorLats, c-int64(at))
			}
		}
	}
	res.AnchorLatencyP50, res.AnchorLatencyP99 = latencyPercentiles(anchorLats)
	return res
}

// verifyShardAnchors runs the cross-shard consistency check and writes the
// verified per-shard anchor progress into the result. A violation — any
// anchored digest that does not match a prefix of its shard's decided log —
// is reported as an agreement error.
func verifyShardAnchors(p *plan, res *Result, inputs []shardFoldInput, anchorIn shardFoldInput) error {
	chains := make([][]types.Block, len(inputs))
	for i, in := range inputs {
		chains[i] = in.chain
	}
	epochs, anchored, err := shard.VerifyAnchors(anchorIn.chain, chains)
	if err != nil {
		return fmt.Errorf("scenario %q: %w", p.sc.Name, agreementError{err})
	}
	for i := range res.Shards {
		res.Shards[i].AnchorEpochs = epochs[i]
		res.Shards[i].AnchoredSlots = anchored[i]
		res.AnchorEpochs += epochs[i]
	}
	return nil
}
