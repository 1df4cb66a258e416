package scenario

import (
	"slices"

	"tetrabft/internal/obs"
	"tetrabft/internal/trace"
	"tetrabft/internal/types"
)

// Result is what a run measured. Slices are ordered deterministically
// (by node, then slot), so two identical EngineSim runs marshal to
// byte-identical JSON.
type Result struct {
	// Name echoes the scenario's name.
	Name string `json:"name,omitempty"`
	// FinishedAt is the virtual time the run ended (EngineTCP: wall-clock
	// milliseconds since start).
	FinishedAt int64 `json:"finished_at"`
	// Events is the number of processed simulator events (EngineSim).
	Events int `json:"events,omitempty"`

	// Decisions lists every recorded decision, sorted by (node, slot).
	// At is in virtual ticks — message delays under the unit delay model.
	Decisions []NodeDecision `json:"decisions,omitempty"`
	// FirstDecisionAt is the earliest decision time for slot 0
	// (single-shot latency, the paper's currency), -1 if nobody decided.
	FirstDecisionAt int64 `json:"first_decision_at"`
	// DecidedCount is how many nodes decided slot 0.
	DecidedCount int `json:"decided_count"`
	// Finalized reports each honest node's finalized slot (multi-shot).
	Finalized []NodeSlot `json:"finalized,omitempty"`
	// OfferedTxs is the offered-load stream's length (Workload.TxCount;
	// service-wide in sharded runs). OfferedTxs − DecidedTxs is the
	// backlog the run left behind — the capacity planner's saturation
	// signal.
	OfferedTxs int `json:"offered_txs,omitempty"`
	// DecidedTxs counts the transactions carried by the reference honest
	// node's finalized chain (multi-shot runs with a batched workload).
	DecidedTxs int `json:"decided_txs,omitempty"`
	// TxLatencyP50 and TxLatencyP99 are per-transaction commit-latency
	// percentiles for the offered-load stream, in ticks (EngineTCP: wall
	// milliseconds): from a transaction's arrival to the earliest honest
	// finalization of the block carrying it. 0 when the run committed no
	// offered-load transactions.
	TxLatencyP50 int64 `json:"tx_latency_p50,omitempty"`
	TxLatencyP99 int64 `json:"tx_latency_p99,omitempty"`

	// TotalSentBytes is the paper's "communicated bits" accounting:
	// bytes put on the wire, per receiver.
	TotalSentBytes int64 `json:"total_sent_bytes,omitempty"`
	// Traffic is the per-node sent/received byte split.
	Traffic []NodeTraffic `json:"traffic,omitempty"`
	// Dropped counts messages lost to the network or an adversary.
	Dropped int64 `json:"dropped,omitempty"`
	// MaxStorageBytes is the largest persistent footprint across honest
	// nodes (Table 1's storage column).
	MaxStorageBytes int64 `json:"max_storage_bytes,omitempty"`
	// MaxView is the highest view an honest single-shot node reached —
	// TetraBFT, PBFT or IT-HotStuff, each chained slot of a pbft-multi or
	// it-hotstuff-multi run included (0 = no view change was needed; Li et
	// al. has no views).
	MaxView int64 `json:"max_view,omitempty"`
	// Transport reports each replica's aggregated TCP link health
	// (EngineTCP): reconnects and frame drops across all its outbound
	// links, including any pre-crash runtime's counters.
	Transport []NodeTransport `json:"transport,omitempty"`

	// Shards reports each shard cluster's results in a sharded run
	// (Scenario.Shards), in shard order. Aggregate fields above fold over
	// the shards: DecidedTxs sums, TxLatency percentiles pool every shard's
	// samples, Events/Traffic/Dropped sum across all clusters.
	Shards []ShardResult `json:"shards,omitempty"`
	// AnchorEpochs counts anchor commitments the anchor cluster finalized,
	// across all shards (sharded runs).
	AnchorEpochs int64 `json:"anchor_epochs,omitempty"`
	// AnchorLatencyP50 and AnchorLatencyP99 are submit-to-commit latency
	// percentiles for anchor transactions, in ticks (EngineTCP: wall
	// milliseconds): from a shard submitting its digest to the anchor
	// cluster finalizing the block carrying it.
	AnchorLatencyP50 int64 `json:"anchor_latency_p50,omitempty"`
	AnchorLatencyP99 int64 `json:"anchor_latency_p99,omitempty"`

	// Stages is the slot-lifecycle latency decomposition (Collect.Stages):
	// per-stage count and nearest-rank p50/p99, in ticks on the simulator
	// and wall milliseconds on the TCP engine, ordered by trace.StageOrder.
	// Both engines share one fold (trace events → stage spans → percentiles),
	// so the breakdowns are directly comparable. Sharded runs pool every
	// shard cluster's samples here and report per-shard breakdowns in
	// Shards[i].Stages.
	Stages []StageDist `json:"stages,omitempty"`
	// Metrics is the run's metrics-registry snapshot (Collect.Metrics),
	// sorted by name.
	Metrics []obs.Sample `json:"metrics,omitempty"`

	// Chain is the first honest node's finalized chain (Collect.Chain).
	Chain []types.Block `json:"chain,omitempty"`
	// Chains holds every honest node's finalized chain (EngineTCP with
	// Collect.Chain, for convergence inspection).
	Chains []NodeChain `json:"chains,omitempty"`
	// Trace is the protocol event trace (Collect.Trace).
	Trace []trace.Event `json:"trace,omitempty"`
}

// NodeDecision records one node's decision for one slot.
type NodeDecision struct {
	Node  types.NodeID `json:"node"`
	Slot  types.Slot   `json:"slot"`
	Value types.Value  `json:"value"`
	At    int64        `json:"at"`
}

// NodeSlot pairs a node with its finalized slot.
type NodeSlot struct {
	Node types.NodeID `json:"node"`
	Slot types.Slot   `json:"slot"`
}

// NodeTraffic is one node's byte accounting.
type NodeTraffic struct {
	Node types.NodeID `json:"node"`
	Sent int64        `json:"sent"`
	Recv int64        `json:"recv"`
}

// NodeChain pairs a node with its finalized chain.
type NodeChain struct {
	Node   types.NodeID  `json:"node"`
	Blocks []types.Block `json:"blocks"`
}

// ShardResult is one shard cluster's fold in a sharded run.
type ShardResult struct {
	// Shard is the cluster's index in [0, S).
	Shard int `json:"shard"`
	// Finalized is the minimum finalized slot across the shard's honest
	// replicas (the slot every live replica agrees on).
	Finalized int64 `json:"finalized"`
	// DecidedTxs counts offered-load transactions on the shard's reference
	// finalized chain.
	DecidedTxs int `json:"decided_txs"`
	// TxLatencyP50 and TxLatencyP99 are the shard's own commit-latency
	// percentiles (same definition as the aggregate fields).
	TxLatencyP50 int64 `json:"tx_latency_p50,omitempty"`
	TxLatencyP99 int64 `json:"tx_latency_p99,omitempty"`
	// AnchorEpochs is how many of this shard's anchors the anchor cluster
	// committed; AnchoredSlots is the longest decided prefix those anchors
	// cover. Every committed anchor's digest was verified against the
	// shard's decided log at fold time.
	AnchorEpochs  int64 `json:"anchor_epochs"`
	AnchoredSlots int64 `json:"anchored_slots"`
	// Reconnects and DroppedFrames sum the shard replicas' TCP link
	// counters (EngineTCP).
	Reconnects    int64 `json:"reconnects,omitempty"`
	DroppedFrames int64 `json:"dropped_frames,omitempty"`
	// Stages is this shard cluster's own stage breakdown (Collect.Stages).
	Stages []StageDist `json:"stages,omitempty"`
}

// StageDist is one pipeline stage's latency distribution: how many spans the
// trace yielded and their nearest-rank p50/p99, in the engine's time unit
// (ticks on the simulator, wall milliseconds on TCP).
type StageDist struct {
	Stage string `json:"stage"`
	Count int    `json:"count"`
	P50   int64  `json:"p50"`
	P99   int64  `json:"p99"`
}

// NodeTransport is one replica's aggregated TCP link counters (EngineTCP).
type NodeTransport struct {
	Node types.NodeID `json:"node"`
	// Reconnects counts successful re-dials after a link's first connect.
	Reconnects int64 `json:"reconnects"`
	// DroppedFrames counts frames abandoned by backpressure or retry TTL.
	DroppedFrames int64 `json:"dropped_frames"`
	// ChaosDropped and ChaosDuplicated count the chaos policy's verdicts.
	ChaosDropped    int64 `json:"chaos_dropped,omitempty"`
	ChaosDuplicated int64 `json:"chaos_duplicated,omitempty"`
}

// Decision returns node's decision for slot, if any.
func (r *Result) Decision(node types.NodeID, slot types.Slot) (NodeDecision, bool) {
	i := slices.IndexFunc(r.Decisions, func(d NodeDecision) bool { return d.Node == node && d.Slot == slot })
	if i < 0 {
		return NodeDecision{}, false
	}
	return r.Decisions[i], true
}

// FinalizedSlot returns node's finalized slot (multi-shot), 0 if unknown.
func (r *Result) FinalizedSlot(node types.NodeID) types.Slot {
	if i := slices.IndexFunc(r.Finalized, func(f NodeSlot) bool { return f.Node == node }); i >= 0 {
		return r.Finalized[i].Slot
	}
	return 0
}

// latencyPercentiles returns the nearest-rank p50 and p99 of lats, sorting
// it in place; zeros for an empty sample. Matches the sweep package's Dist
// definition so scenario results and sweep aggregates agree.
func latencyPercentiles(lats []int64) (p50, p99 int64) {
	if len(lats) == 0 {
		return 0, 0
	}
	slices.Sort(lats)
	rank := func(q int) int64 {
		return lats[max((q*len(lats)+99)/100, 1)-1] // ceil(q/100 * n), nearest rank
	}
	return rank(50), rank(99)
}

// stageSamples folds a trace into per-stage latency samples. This is the one
// fold both engines (and the sharded variants) share: the simulator feeds it
// tick-stamped events, the TCP engine millisecond-stamped ones, and the
// percentile definition downstream is identical.
func stageSamples(events []trace.Event) map[string][]int64 {
	m := make(map[string][]int64)
	for _, sp := range trace.StageSpans(trace.FoldSlotStages(events)) {
		m[sp.Stage] = append(m[sp.Stage], sp.Ticks)
	}
	if dwells := trace.ViewChangeDwells(events); len(dwells) > 0 {
		m[trace.StageViewChangeDwell] = append(m[trace.StageViewChangeDwell], dwells...)
	}
	return m
}

// stageDists converts pooled samples into the result's breakdown, in
// trace.StageOrder with empty stages omitted.
func stageDists(samples map[string][]int64) []StageDist {
	var out []StageDist
	for _, stage := range trace.StageOrder {
		lats := samples[stage]
		if len(lats) == 0 {
			continue
		}
		p50, p99 := latencyPercentiles(lats)
		out = append(out, StageDist{Stage: stage, Count: len(lats), P50: p50, P99: p99})
	}
	return out
}

// StageDist returns the named stage's distribution, if the run observed it.
func (r *Result) StageDist(stage string) (StageDist, bool) {
	i := slices.IndexFunc(r.Stages, func(d StageDist) bool { return d.Stage == stage })
	if i < 0 {
		return StageDist{}, false
	}
	return r.Stages[i], true
}

// Metric returns the named metric sample's value, 0 if absent.
func (r *Result) Metric(name string) int64 {
	if i := slices.IndexFunc(r.Metrics, func(s obs.Sample) bool { return s.Name == name }); i >= 0 {
		return r.Metrics[i].Value
	}
	return 0
}

// TraceFilter returns the collected trace events of one type.
func (r *Result) TraceFilter(typ string) []trace.Event {
	var out []trace.Event
	for _, e := range r.Trace {
		if e.Type == typ {
			out = append(out, e)
		}
	}
	return out
}
