package scenario

import (
	"fmt"

	"tetrabft/internal/blockchain"
	"tetrabft/internal/byz"
	"tetrabft/internal/multishot"
	"tetrabft/internal/obs"
	"tetrabft/internal/shard"
	"tetrabft/internal/sim"
	"tetrabft/internal/trace"
	"tetrabft/internal/types"
	"tetrabft/internal/workload"
)

// The sharded sim engine runs S shard clusters plus the anchor cluster as
// S+1 independent simulator instances advanced in lockstep: one goroutine
// drives every runner to the same virtual instant (a quantum of
// shards.anchor_interval ticks), then performs the anchoring round —
// digesting each grown shard log and submitting the anchor transaction into
// the anchor cluster's arrival-gated mempool at the current instant. Because
// nothing ever runs concurrently, a sharded sim run is exactly as
// deterministic as a plain one: same spec + same seed = byte-identical
// result at any GOMAXPROCS.

// simShardCluster is one cluster (a shard or the anchor) on the simulator.
type simShardCluster struct {
	r      *sim.Runner
	nodes  []*multishot.Node // honest replicas, ID order
	honest []types.NodeID
}

// newSimShardCluster builds one cluster: n replicas on a fresh runner,
// silent ones replaced per the fault schedule, the rest drawing batches
// from the cluster's arrival-gated batch source. tracer (per-cluster, for
// the stage fold) and reg (run-shared metrics) may be nil.
func newSimShardCluster(p *plan, n int, seed int64, maxSlot types.Slot, silent map[types.NodeID]bool, batch func(types.Slot, types.Time) [][]byte, tracer trace.Tracer, reg *obs.Registry) (*simShardCluster, error) {
	r := sim.New(sim.Config{
		Seed:          seed,
		Delay:         buildDelay(p.sc.Network.Delay),
		GST:           types.Time(p.sc.Network.GST),
		DropBeforeGST: p.sc.Network.DropBeforeGST,
		Metrics:       reg,
	})
	cl := &simShardCluster{r: r}
	for id := types.NodeID(0); int(id) < n; id++ {
		if silent[id] {
			r.Add(byz.Silent{NodeID: id})
			continue
		}
		node, err := multishot.NewNode(multishot.Config{
			ID: id, Nodes: n, Delta: p.delta(),
			TimeoutFactor: p.sc.TimeoutFactor, MaxSlot: maxSlot,
			Window: p.sc.Workload.Window,
			Batch:  batch,
			Tracer: tracer, Metrics: reg,
		})
		if err != nil {
			return nil, err
		}
		cl.nodes = append(cl.nodes, node)
		cl.honest = append(cl.honest, id)
		r.Add(node)
	}
	return cl, nil
}

// refChain is the cluster's reference finalized chain (first honest
// replica). Read-only: it is the node's internal cache.
func (cl *simShardCluster) refChain() []types.Block { return cl.nodes[0].FinalizedChain() }

// minFinalized is the finalized slot every honest replica has reached.
func (cl *simShardCluster) minFinalized() int64 {
	min := int64(-1)
	for _, node := range cl.nodes {
		if s := int64(node.FinalizedSlot()); min < 0 || s < min {
			min = s
		}
	}
	if min < 0 {
		return 0
	}
	return min
}

// shardSilent collects the silent-replica fault schedule of one shard.
func shardSilent(p *plan, s int) map[types.NodeID]bool {
	out := make(map[types.NodeID]bool)
	for _, f := range p.sc.Faults {
		if f.Type == FaultSilent && f.Shard == s {
			out[f.Node] = true
		}
	}
	return out
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
	s := sh.count()
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

func runShardSim(p *plan) (*Result, error) {
	sh := p.sc.Shards
	s := sh.count()
	loads := buildShardWorkload(p)
	anchorPool := blockchain.NewTimedMempool(0)

	// Per-shard trace logs feed the stage fold (the anchor cluster's
	// lifecycle is mostly empty filler slots, so it stays untraced); one
	// registry is shared by every cluster.
	var logs []*trace.Log
	if p.sc.Collect.Stages {
		logs = make([]*trace.Log, s)
		for i := range logs {
			logs[i] = &trace.Log{}
		}
	}
	var reg *obs.Registry
	if p.sc.Collect.Metrics {
		reg = obs.NewRegistry()
	}

	clusters := make([]*simShardCluster, s)
	for i := range clusters {
		var tracer trace.Tracer
		if logs != nil {
			tracer = logs[i]
		}
		cl, err := newSimShardCluster(p, sh.nodesPerShard(), p.seed()+int64(i), p.maxSlot, shardSilent(p, i), loads[i].batchSource(p.batchSize()), tracer, reg)
		if err != nil {
			return nil, err
		}
		clusters[i] = cl
	}
	// The anchor cluster proposes without a slot cap: its pipeline keeps
	// filling slots with empty blocks between anchor arrivals, and a cap
	// would be exhausted before the last shard's final anchor lands. Its
	// batch size admits every shard anchoring in the same round.
	anchorCl, err := newSimShardCluster(p, sh.anchorNodes(), p.seed()+int64(s), 0, nil, anchorPool.BatchSource(s), nil, reg)
	if err != nil {
		return nil, err
	}
	all := append(append([]*simShardCluster(nil), clusters...), anchorCl)

	// Lockstep quanta: advance everyone to t, anchor what grew, check
	// completion — every shard at the slot target and every submitted
	// anchor committed.
	quantum := types.Time(sh.anchorInterval())
	horizon := types.Time(p.sc.Stop.Horizon)
	target := p.sc.Workload.Slots
	epochs := make([]int64, s)       // anchors submitted per shard
	lastAnchored := make([]int64, s) // decided-log length last digested
	submitAt := make(map[string]types.Time)
	var now types.Time
	var runErr error

loop:
	for t := quantum; ; t += quantum {
		if t > horizon {
			t = horizon
		}
		now = t
		for _, cl := range all {
			if err := cl.r.Run(t, nil); err != nil {
				runErr = fmt.Errorf("scenario %q: %w", p.sc.Name, err)
				break loop
			}
		}
		for i, cl := range clusters {
			chain := cl.refChain()
			if int64(len(chain)) <= lastAnchored[i] {
				continue
			}
			epochs[i]++
			a := shard.Anchor{Shard: i, Epoch: epochs[i], Slots: int64(len(chain)),
				Digest: shard.PrefixDigest(chain, len(chain))}
			tx := a.Encode()
			anchorPool.Submit(t, tx)
			submitAt[string(tx)] = t
			lastAnchored[i] = int64(len(chain))
		}
		done := true
		committed := committedEpochs(anchorCl.refChain(), s)
		for i, cl := range clusters {
			if cl.minFinalized() < target || epochs[i] == 0 || committed[i] < epochs[i] {
				done = false
				break
			}
		}
		if done || t >= horizon {
			break
		}
	}
	if runErr == nil {
		for i, cl := range all {
			if err := cl.r.AgreementViolation(); err != nil {
				label := fmt.Sprintf("shard %d", i)
				if i == s {
					label = "anchor cluster"
				}
				runErr = fmt.Errorf("scenario %q: %s: %w", p.sc.Name, label, agreementError{err})
				break
			}
		}
	}
	return foldShardResult(p, clusters, anchorCl, logs, reg, loads, submitAt, int64(now), runErr)
}

// committedEpochs scans the anchor cluster's decided log and returns the
// highest epoch committed per shard (well-formedness is checked at fold
// time; here malformed transactions are simply not progress).
func committedEpochs(anchorChain []types.Block, s int) []int64 {
	out := make([]int64, s)
	for _, b := range anchorChain {
		for _, tx := range b.Txs {
			if a, ok := shard.DecodeAnchor(tx); ok && a.Shard < s && a.Epoch > out[a.Shard] {
				out[a.Shard] = a.Epoch
			}
		}
	}
	return out
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

// foldShardResult builds the sharded Result from the sim clusters and
// verifies the cross-shard consistency invariant. runErr, when non-nil,
// takes precedence over (but does not suppress) the fold.
func foldShardResult(p *plan, clusters []*simShardCluster, anchorCl *simShardCluster, logs []*trace.Log, reg *obs.Registry, loads []*offered, submitAt map[string]types.Time, finishedAt int64, runErr error) (*Result, error) {
	inputs := make([]shardFoldInput, len(clusters))
	for i, cl := range clusters {
		inputs[i] = shardFoldInput{chain: cl.refChain(), commitAt: earliestCommits(cl.r.Decisions(), cl.honest), finalized: cl.minFinalized()}
		if logs != nil {
			inputs[i].stages = stageSamples(logs[i].Events())
		}
	}
	anchorIn := shardFoldInput{chain: anchorCl.refChain(), commitAt: earliestCommits(anchorCl.r.Decisions(), anchorCl.honest), finalized: anchorCl.minFinalized()}
	res := foldShards(p, inputs, anchorIn, loads, submitAt, finishedAt)
	for _, cl := range append(append([]*simShardCluster(nil), clusters...), anchorCl) {
		res.Events += cl.r.Events()
		res.TotalSentBytes += cl.r.TotalSentBytes()
		res.Dropped += cl.r.DroppedMessages()
	}
	if reg != nil {
		res.Metrics = reg.Snapshot()
	}
	if runErr != nil {
		return res, runErr
	}
	if err := verifyShardAnchors(p, res, inputs, anchorIn); err != nil {
		return res, err
	}
	return res, nil
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
		res.OfferedTxs += len(load.arrivals)
	}
	var allLats []int64
	pooledStages := make(map[string][]int64)
	stagesOn := false
	for i, in := range inputs {
		txs, lats := txLatencies(in.chain, in.commitAt, loads[i].arrivals)
		p50, p99 := latencyPercentiles(lats)
		sr := ShardResult{
			Shard: i, Finalized: in.finalized, DecidedTxs: txs,
			TxLatencyP50: p50, TxLatencyP99: p99,
			Reconnects: in.reconnects, DroppedFrames: in.droppedFrames,
		}
		if in.stages != nil {
			stagesOn = true
			sr.Stages = stageDists(in.stages)
			mergeStageSamples(pooledStages, in.stages)
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
