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

// A run deploys the plan's clusters (plan.clusters) with one protocol on
// top, written here once for both engines: the offered-load streams
// (buildShardWorkload), the fold that sums a run up (deployment.fold) and,
// for a sharded plan, the anchoring round and the completion rule. A flat
// run is the one-stream case: its only cluster carries the whole stream,
// and there is no anchor cluster, round or completion rule. Each engine has
// one runner that drives every cluster of the plan, runSim (run.go) and
// runTCP (tcp.go); each adds only its own measurements to what the fold
// fills in, and per-node ones only for a flat run.
//
// On the simulator a sharded run advances its S+1 runners in lockstep on
// one goroutine, so it is exactly as deterministic as a flat one: same
// spec + same seed = byte-identical result at any GOMAXPROCS. The TCP
// engine runs the round from a ticker goroutine (shard_tcp.go) and the
// completion check from its wait loop.

// shardCluster is what the sharded protocol reads from a cluster of either
// engine: its reference finalized chain and the slot every required
// replica has finalized.
type shardCluster interface {
	refChain() ([]types.Block, bool)
	minFinalized() int64
}

// buildShardWorkload builds the offered-load stream of every cluster that
// carries one. A flat plan's one cluster takes the whole schedule as it is.
// A sharded plan's Workload.TxCount and TxRate (or Arrival.Rate) are per
// shard, so its service-wide stream is S × both — one plan.offeredStream
// call either way — split across the shards. Legacy tx_rate streams pin
// transaction j round-robin (j mod S, exactly equal per-shard rate) unless
// the cross-mix says it roams — then its synthetic account key is placed by
// the gateway's own router, modeling realistic imbalance. Arrival-process
// streams route every transaction by its cohort key instead: small cohort
// key spaces concentrate on few shards (hot-shard workloads) and the
// cross-mix knob is subsumed by key placement. Each shard's stream stays in
// arrival order.
func buildShardWorkload(p *plan) []*offered {
	s, count := p.streams(), p.streams()*p.sc.Workload.TxCount
	if s == 1 {
		o := newOffered(count)
		p.offeredStream(count, 1, o)
		return []*offered{o}
	}
	loads, parts := make([]*offered, s), make([]workload.Sink, s)
	for i := range loads {
		loads[i] = newOffered(0)
		parts[i] = loads[i]
	}
	router := shard.Router{Shards: s}
	roamPct := int(p.sc.Shards.CrossMix*100 + 0.5)
	byKey := p.sc.Workload.Arrival != nil
	p.offeredStream(count, s, workload.Split(parts, func(j int, key string) int {
		if byKey || j%100 < roamPct {
			return router.Shard(key)
		}
		return j % s
	}))
	return loads
}

// deployment is the protocol on top of a run's clusters, the same on both
// engines. The anchoring state — pool to epochs — exists only for a
// sharded plan.
type deployment struct {
	p        *plan
	clusters []shardCluster           // the stream clusters in order, then the anchor cluster
	loads    []*offered               // each stream cluster's part of the offered load
	pool     *blockchain.TimedMempool // the anchor cluster's arrival-gated pool
	last     []int                    // decided-log length last digested per shard
	submitAt map[string]types.Time    // anchor transaction → submit time

	// mu guards epochs, the anchors submitted per shard: on TCP the
	// completion check reads them while the ticker goroutine runs rounds.
	// Chain reads, which block on a replica's event loop, stay outside it.
	mu     sync.Mutex
	epochs []int64
}

func newDeployment(p *plan) *deployment {
	dep := &deployment{p: p, loads: buildShardWorkload(p)}
	if s := len(dep.loads); p.sc.Shards != nil {
		dep.pool, dep.last, dep.epochs = blockchain.NewTimedMempool(0), make([]int, s), make([]int64, s)
		dep.submitAt = make(map[string]types.Time)
	}
	return dep
}

// anchored reports whether the plan is sharded: its clusters end with the
// anchor cluster.
func (dep *deployment) anchored() bool { return dep.pool != nil }

// feed is what cluster i of the plan proposes from and traces to. A stream
// cluster draws batches from its part of the offered load and is traced
// when a trace or stages are collected (a sharded plan collects no trace).
// The anchor cluster draws from the anchor pool, with room for every shard
// anchoring in the same round, and stays untraced: its lifecycle is mostly
// empty filler slots.
func (dep *deployment) feed(i int) (func(types.Slot, types.Time) [][]byte, *trace.Log) {
	if i == len(dep.loads) {
		return dep.pool.BatchSource(len(dep.loads)), nil
	}
	var log *trace.Log
	if dep.p.sc.Collect.Trace || dep.p.sc.Collect.Stages {
		log = &trace.Log{}
	}
	return dep.loads[i].batchSource(dep.p.batchSize()), log
}

// round is one anchoring round at time at: each shard whose decided log
// grew since the last round gets its next epoch, whose anchor — the digest
// of the whole log — is submitted into the anchor pool. One caller at a
// time, in time order (the pool's contract).
func (dep *deployment) round(at types.Time) {
	for i, cl := range dep.clusters[:len(dep.loads)] {
		chain, _ := cl.refChain()
		if len(chain) <= dep.last[i] {
			continue
		}
		dep.mu.Lock()
		dep.epochs[i]++
		dep.mu.Unlock()
		a := shard.Anchor{Shard: i, Epoch: dep.epochs[i], Slots: int64(len(chain)),
			Digest: shard.PrefixDigest(chain, len(chain))}
		tx := a.Encode()
		dep.pool.Submit(at, tx)
		dep.submitAt[string(tx)] = at
		dep.last[i] = len(chain)
	}
}

// done is the completion rule: every shard has finalized the slot target
// and — only then worth the anchor-log scan — the anchor cluster has
// committed every anchor submitted so far, at least one per shard.
func (dep *deployment) done() bool {
	s := len(dep.loads)
	for _, cl := range dep.clusters[:s] {
		if cl.minFinalized() < dep.p.sc.Workload.Slots {
			return false
		}
	}
	chain, _ := dep.clusters[s].refChain()
	committed, _ := anchorProgress(chain, s)
	dep.mu.Lock()
	defer dep.mu.Unlock()
	for i, e := range dep.epochs {
		if e == 0 || committed[i] < e {
			return false
		}
	}
	return true
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

// foldInput is what the fold needs from one cluster, engine-neutral.
type foldInput struct {
	chain    []types.Block
	commitAt map[types.Slot]int64
	// finalized is the min finalized slot across the cluster's honest
	// replicas.
	finalized int64
	// reconnects and droppedFrames are TCP link counters (zero on sim).
	reconnects, droppedFrames int64
	// stages holds the cluster's per-stage latency samples when it was
	// traced; nil otherwise.
	stages map[string][]int64
}

// fold fills in res's engine-neutral fields from every cluster's fold (the
// stream clusters in order, then a sharded plan's anchor cluster): the
// offered and decided transactions and their latency percentiles, the
// stages, the chain and the metrics snapshot. Stages are reported when they
// were collected, not whenever a trace yielded samples. A sharded plan adds
// per-shard entries and anchor latencies, then — unless runErr already
// failed the run — the cross-shard consistency check. fold returns the
// run's error.
func (dep *deployment) fold(res *Result, inputs []foldInput, reg *obs.Registry, runErr error) error {
	p, streams := dep.p, inputs[:len(dep.loads)]
	offered, decided := 0, 0
	var lats []int64
	pooled := make(map[string][]int64)
	for i, in := range streams {
		txs, own := txLatencies(in.chain, in.commitAt, dep.loads[i])
		offered += len(dep.loads[i].at)
		decided += txs
		if dep.anchored() {
			p50, p99 := latencyPercentiles(own)
			sr := ShardResult{
				Shard: i, Finalized: in.finalized, DecidedTxs: txs,
				TxLatencyP50: p50, TxLatencyP99: p99,
				Reconnects: in.reconnects, DroppedFrames: in.droppedFrames,
			}
			if p.sc.Collect.Stages {
				sr.Stages = stageDists(in.stages)
			}
			res.Shards = append(res.Shards, sr)
		}
		if lats == nil { // one stream's samples are not copied
			lats = own
		} else {
			lats = append(lats, own...)
		}
		for stage, l := range in.stages {
			pooled[stage] = append(pooled[stage], l...)
		}
	}
	res.OfferedTxs, res.DecidedTxs = offered, decided
	res.TxLatencyP50, res.TxLatencyP99 = latencyPercentiles(lats)
	if p.sc.Collect.Stages {
		res.Stages = stageDists(pooled)
	}
	if p.sc.Collect.Chain {
		res.Chain = inputs[0].chain
	}
	if reg != nil {
		res.Metrics = reg.Snapshot()
	}
	if !dep.anchored() {
		return runErr
	}

	anchorIn := inputs[len(dep.loads)]
	var anchorLats []int64
	for _, b := range anchorIn.chain {
		c, ok := anchorIn.commitAt[b.Slot]
		if !ok {
			continue
		}
		for _, tx := range b.Txs {
			if at, ok := dep.submitAt[string(tx)]; ok {
				anchorLats = append(anchorLats, c-int64(at))
			}
		}
	}
	res.AnchorLatencyP50, res.AnchorLatencyP99 = latencyPercentiles(anchorLats)
	if runErr != nil {
		return runErr
	}
	return verifyShardAnchors(p, res, streams, anchorIn)
}

// verifyShardAnchors runs the cross-shard consistency check and writes the
// verified per-shard anchor progress into the result. A violation — any
// anchored digest that does not match a prefix of its shard's decided log —
// is reported as an agreement error.
func verifyShardAnchors(p *plan, res *Result, inputs []foldInput, anchorIn foldInput) error {
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
