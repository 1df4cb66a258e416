package scenario

import (
	"errors"
	"fmt"
	"slices"
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
// for a sharded plan, each cluster's applied log, the anchoring round and
// the completion rule. A flat run is the one-stream case: its only cluster
// carries the whole stream, and there is no log, anchor cluster, round or
// completion rule. Each engine has one runner that drives every cluster of
// the plan, runSim (run.go) and runTCP (tcp.go); each adds only its own
// measurements to what the fold fills in, and per-node ones only for a flat
// run.
//
// On the simulator a sharded run advances its S+1 runners in lockstep on
// one goroutine, so same spec + same seed = byte-identical result at any
// GOMAXPROCS. The TCP engine runs the round from a ticker goroutine
// (shard_tcp.go) and the completion check from its wait loop.

// appliedLog is one cluster's finalized log as an application applies it:
// each finalized block once, in slot order, into the height and running
// digest the anchors carry, the KV that gateway writes build, the decided
// transactions and, on the anchor cluster, each shard's highest committed
// epoch and longest anchored prefix (the fold rejects malformed anchors).
// The simulator feeds it from the cluster's first honest replica at every
// quantum; on TCP the replica that finalizes a slot first feeds it, from its
// event loop, while the ticker and the gateway read it.
type appliedLog struct {
	mu               sync.Mutex
	digest           *shard.Digest // its Len is the height
	kv               *blockchain.KV
	txs              int64
	epochs, anchored []int64 // per shard on the anchor cluster, nil elsewhere
}

// extend applies the blocks of chain, a replica's finalized chain, past the
// log's height: none while a relaunched replica catches up.
func (l *appliedLog) extend(chain []types.Block) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, b := range chain[min(l.digest.Len(), len(chain)):] {
		l.digest.Add(b)
		l.kv.ApplyBlock(b)
		l.txs += int64(b.NumTxs())
		for j := 0; l.epochs != nil && j < len(b.Txs); j++ {
			if a, ok := shard.DecodeAnchor(b.Txs[j]); ok && a.Shard < len(l.epochs) {
				l.epochs[a.Shard] = max(l.epochs[a.Shard], a.Epoch)
				l.anchored[a.Shard] = max(l.anchored[a.Shard], a.Slots)
			}
		}
	}
}

// buildShardWorkload starts the producer of every cluster's offered-load
// stream and returns it with the streams. A flat plan's one cluster takes
// the whole schedule as it is. A sharded plan's Workload.TxCount and TxRate
// (or Arrival.Rate) are per shard, so its service-wide stream is S × both —
// one plan.offeredStream call either way — split across the shards. Legacy
// tx_rate streams pin transaction j round-robin (j mod S, exactly equal
// per-shard rate) unless the cross-mix says it roams — then its synthetic
// account key is placed by the gateway's own router, modeling realistic
// imbalance. Arrival-process streams route every transaction by its cohort
// key instead: small cohort key spaces concentrate on few shards (hot-shard
// workloads) and the cross-mix knob is subsumed by key placement. Each
// shard's stream stays in arrival order.
func buildShardWorkload(p *plan) (*workload.Producer, []*offered) {
	s, count := p.streams(), p.streams()*p.sc.Workload.TxCount
	var home func(j int, key string) int
	if s > 1 {
		router := shard.Router{Shards: s}
		roamPct := int(p.sc.Shards.CrossMix*100 + 0.5)
		byKey := p.sc.Workload.Arrival != nil
		home = func(j int, key string) int {
			if byKey || j%100 < roamPct {
				return router.Shard(key)
			}
			return j % s
		}
	}
	feed := produce(count, s, home, func(dst workload.Sink) { p.offeredStream(count, s, dst) })
	loads := make([]*offered, s)
	for i := range loads {
		loads[i] = &offered{Reader: feed.Reader(i)}
	}
	return feed, loads
}

// produce is workload.Produce, a variable so tests can slow the producer.
var produce = workload.Produce

// deployment is the protocol on top of a run's clusters, the same on both
// engines. The anchoring state — logs to epochs — exists only for a
// sharded plan.
type deployment struct {
	p        *plan
	stream   *workload.Producer       // the offered load's; every runner Closes it
	loads    []*offered               // each stream cluster's part of the offered load
	logs     []*appliedLog            // each cluster's applied log, in clusters' order
	pool     *blockchain.TimedMempool // the anchor cluster's arrival-gated pool
	last     []int                    // log height last anchored per shard
	submitAt map[string]types.Time    // anchor transaction → submit time

	// mu guards epochs, the anchors submitted per shard: on TCP the
	// completion check reads them while the ticker goroutine runs rounds.
	mu     sync.Mutex
	epochs []int64
}

func newDeployment(p *plan) *deployment {
	dep := &deployment{p: p}
	dep.stream, dep.loads = buildShardWorkload(p)
	if s := len(dep.loads); p.sc.Shards != nil {
		dep.pool, dep.last, dep.epochs = blockchain.NewTimedMempool(0), make([]int, s), make([]int64, s)
		for range s + 1 {
			dep.logs = append(dep.logs, &appliedLog{digest: shard.NewDigest(), kv: blockchain.NewKV()})
		}
		dep.logs[s].epochs, dep.logs[s].anchored = make([]int64, s), make([]int64, s)
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

// round is one anchoring round at time at: each shard whose applied log
// grew since the last round gets its next epoch, whose anchor — the height
// and digest of the whole log — is submitted into the anchor pool. One
// caller at a time, in time order (the pool's contract).
func (dep *deployment) round(at types.Time) {
	for i, l := range dep.logs[:len(dep.loads)] {
		l.mu.Lock()
		height, digest := l.digest.Len(), l.digest.Sum()
		l.mu.Unlock()
		if height <= dep.last[i] {
			continue
		}
		dep.mu.Lock()
		dep.epochs[i]++
		dep.mu.Unlock()
		tx := shard.Anchor{Shard: i, Epoch: dep.epochs[i], Slots: int64(height), Digest: digest}.Encode()
		dep.pool.Submit(at, tx)
		dep.submitAt[string(tx)] = at
		dep.last[i] = height
	}
}

// done is the completion rule: every shard has finalized the slot target —
// minFinalized(i) is the slot every required replica of shard i has — and
// the anchor cluster has committed every anchor submitted so far, at least
// one per shard.
func (dep *deployment) done(minFinalized func(i int) int64) bool {
	s := len(dep.loads)
	for i := range s {
		if minFinalized(i) < dep.p.sc.Workload.Slots {
			return false
		}
	}
	anchor := dep.logs[s]
	dep.mu.Lock()
	defer dep.mu.Unlock()
	anchor.mu.Lock()
	defer anchor.mu.Unlock()
	for i, e := range dep.epochs {
		if e == 0 || anchor.epochs[i] < e {
			return false
		}
	}
	return true
}

// commitRecord is a multishot cluster's decisions for both engines, fed by
// the simulator's and the TCP hosts' OnDecide and a chained row's slot runs:
// per slot the earliest commit, first value and number of decisions, the
// first value to differ (an agreement violation), and the latest decision,
// which a node's repeat of a slot at or below its highest (it decides in
// slot order) cannot move. next holds one past each node's highest decided
// slot (0: none), at its ID; farNext holds it for farIDs, the IDs outside
// [0, maxNodes) that a quorum-slice spec may name.
type commitRecord struct {
	slots         []slotCommit // by slot
	next, farNext []types.Slot
	farIDs        []types.NodeID
	last          int64
	err           error
}

// slotCommit is a slot's earliest commit (-1: none), first decision and
// decision count.
type slotCommit struct {
	at    int64
	node  types.NodeID
	val   types.Value
	count int
}

// at is slot s's earliest commit, -1 when there is none (or no record).
func (r *commitRecord) at(s types.Slot) int64 {
	if r == nil || s < 0 || s >= types.Slot(len(r.slots)) {
		return -1
	}
	return r.slots[s].at
}

// decided is how many decisions of slot s ≥ 0 the record holds.
func (r *commitRecord) decided(s types.Slot) int {
	if s >= types.Slot(len(r.slots)) {
		return 0
	}
	return r.slots[s].count
}

// decide records node's decision of val for slot at time at.
func (r *commitRecord) decide(node types.NodeID, slot types.Slot, val types.Value, at types.Time) {
	for slot >= types.Slot(len(r.slots)) {
		r.slots = append(r.slots, slotCommit{at: -1})
	}
	c := &r.slots[slot]
	if c.at < 0 {
		*c = slotCommit{int64(at), node, val, 0}
	} else if val != c.val && r.err == nil {
		r.err = fmt.Errorf("agreement violated in slot %d: node %d decided %q, node %d decided %q", slot, c.node, c.val, node, val)
	}
	c.at, c.count = min(c.at, int64(at)), c.count+1
	if next := r.nextOf(node); slot >= *next {
		*next, r.last = slot+1, max(r.last, int64(at))
	}
}

// nextOf is where node's one-past-highest decided slot is kept.
func (r *commitRecord) nextOf(node types.NodeID) *types.Slot {
	if uint(node) < maxNodes {
		for int(node) >= len(r.next) {
			r.next = append(r.next, 0)
		}
		return &r.next[node]
	}
	i := slices.Index(r.farIDs, node)
	if i < 0 {
		i, r.farIDs, r.farNext = len(r.farIDs), append(r.farIDs, node), append(r.farNext, 0)
	}
	return &r.farNext[i]
}

// foldInput is what the fold needs from one cluster, engine-neutral.
type foldInput struct {
	chain   []types.Block
	commits *commitRecord
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
		txs, own := dep.loads[i].latencies(in.chain, in.commits)
		offered += len(dep.loads[i].At) // latencies synced the whole stream
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
		c := anchorIn.commits.at(b.Slot)
		for _, tx := range b.Txs {
			if at, ok := dep.submitAt[string(tx)]; ok && c >= 0 {
				anchorLats = append(anchorLats, c-int64(at))
			}
		}
	}
	res.AnchorLatencyP50, res.AnchorLatencyP99 = latencyPercentiles(anchorLats)
	if runErr != nil {
		return runErr
	}
	// The cross-shard consistency check: an anchored digest that matches no
	// prefix of its shard's decided log is an agreement violation. A lost
	// anchor fails the run too, but diverges from nothing.
	chains := make([][]types.Block, len(streams))
	for i, in := range streams {
		chains[i] = in.chain
	}
	epochs, anchored, err := shard.VerifyAnchors(anchorIn.chain, chains)
	if err != nil {
		if !errors.Is(err, shard.ErrAnchorLost) {
			err = agreementError{err}
		}
		return fmt.Errorf("scenario %q: %w", p.sc.Name, err)
	}
	for i := range res.Shards {
		res.Shards[i].AnchorEpochs = epochs[i]
		res.Shards[i].AnchoredSlots = anchored[i]
		res.AnchorEpochs += epochs[i]
	}
	return nil
}
