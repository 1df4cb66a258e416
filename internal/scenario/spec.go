// Package scenario is the declarative experiment API: one JSON-serializable
// spec describes a whole run — cluster (protocol, size, quorum system),
// fault schedule, network regime, workload, stop condition and requested
// metrics — and Run executes it and returns a Result.
//
// The paper's evaluation is a matrix of exactly such scenarios (protocol ×
// cluster size × fault behavior × network regime, Table 1 and Figures 2-3),
// and every assembly site in the repository builds on this package: the
// sweeps of internal/sweep, the tetrabft-sim command (whose only input is
// a -scenario file.json spec), and the examples/ programs.
// Because a spec plus its seed pins the entire run, sharing the JSON is
// sharing the experiment: anyone can reproduce the numbers byte for byte.
package scenario

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strings"

	"tetrabft/internal/quorum"
	"tetrabft/internal/types"
	"tetrabft/internal/workload"
)

// ErrRateWithoutCount rejects an offered-load pacing knob (tx_rate or
// arrival) without tx_count. The count is the stream's length and always
// wins: the rate only spreads those tx_count arrivals over time, so a rate
// with tx_count = 0 would silently offer nothing — an easy way to read a
// vacuous "0 tx decided, SLO green" result as a real measurement.
var ErrRateWithoutCount = errors.New("scenario: tx_rate/arrival pace the offered-load stream but tx_count is 0 (tx_count bounds the stream and always wins; set workload.tx_count)")

// Engine selects the execution substrate.
type Engine string

// Engines.
const (
	// EngineSim (the default) runs on the deterministic discrete-event
	// simulator: virtual time, byte accounting, full fault injection.
	EngineSim Engine = "sim"
	// EngineTCP runs real TCP runtimes on localhost — the deployment
	// shape. Only TetraBFTMulti is supported. Replicas persist to
	// per-run WALs, the fault schedule supports silent, partition and
	// crash-restart faults, and the network regime (delay, pre-GST loss,
	// duplication) maps onto a seeded frame-level chaos transport whose
	// fault pattern is deterministic per seed. Wall-clock timings still
	// vary run to run; finalized chains must not.
	EngineTCP Engine = "tcp"
)

// Scenario is the declarative spec for one run. The zero value of every
// field means "use the default", so a minimal spec is just a protocol and
// a cluster size. All fields serialize to JSON.
type Scenario struct {
	// Name labels the scenario in results and logs.
	Name string `json:"name,omitempty"`
	// Protocol selects the consensus protocol (default TetraBFT).
	Protocol Protocol `json:"protocol,omitempty"`
	// Nodes is the cluster size. With a Quorum spec it may be omitted
	// (the membership is derived from the slices).
	Nodes int `json:"nodes,omitempty"`
	// Quorum optionally replaces the n ≥ 3f+1 threshold system with
	// heterogeneous FBA-style slices (TetraBFT protocols only).
	Quorum *QuorumSpec `json:"quorum,omitempty"`
	// Seed drives all randomness (default 1). Same spec + same seed =
	// same run, byte for byte.
	Seed int64 `json:"seed,omitempty"`
	// Delta is the post-GST delay bound Δ in ticks (default 10).
	Delta int64 `json:"delta,omitempty"`
	// TimeoutFactor scales the view timeout to TimeoutFactor×Δ
	// (default 9, per the paper).
	TimeoutFactor int `json:"timeout_factor,omitempty"`
	// Engine selects the substrate (default EngineSim).
	Engine Engine `json:"engine,omitempty"`
	// Network is the network regime.
	Network NetworkSpec `json:"network,omitempty"`
	// Faults is the fault schedule: node behaviors and message-level
	// adversaries, applied in order.
	Faults []FaultSpec `json:"faults,omitempty"`
	// Workload declares inputs: initial values, slot targets,
	// transactions.
	Workload WorkloadSpec `json:"workload,omitempty"`
	// Stop declares when the run ends.
	Stop StopSpec `json:"stop,omitempty"`
	// Collect requests optional (potentially large) result payloads.
	Collect CollectSpec `json:"collect,omitempty"`
	// Shards turns the run into a sharded service deployment: S independent
	// multi-shot shard clusters plus one anchor cluster, a deterministic
	// key→shard router over the offered-load stream, and an anchoring loop
	// committing each shard's decided-prefix digest into the anchor cluster
	// (TetraBFTMulti only; both engines). Nil = one ordinary cluster.
	Shards *ShardsSpec `json:"shards,omitempty"`
	// Mutation deliberately breaks the protocol (TetraBFT single-shot
	// only) so adversarial harnesses — the scenario fuzzer above all —
	// can prove they detect safety violations. Production specs leave it
	// empty. See core.Mutation for what each variant removes.
	Mutation Mutation `json:"mutation,omitempty"`
}

// ShardsSpec declares the sharded service topology: how many shard
// clusters, how big each cluster is, the anchor cluster fronting them, and
// how the offered-load workload spreads across shards. Workload.TxCount and
// Workload.TxRate are per shard in a sharded run, so varying Count compares
// deployments at equal per-shard offered rate. Every shard — and the anchor
// cluster — is an independent multishot instance with its own mempool and
// seed (base seed + cluster index; the anchor cluster uses base seed +
// Count); on the TCP engine each cluster also gets its own WAL directory
// tree and listen ports.
type ShardsSpec struct {
	// Count is the number of shard clusters S (≥ 1).
	Count int `json:"count"`
	// NodesPerShard sizes each shard cluster (default 4, minimum 4).
	NodesPerShard int `json:"nodes_per_shard,omitempty"`
	// AnchorNodes sizes the anchor cluster (default 4, minimum 4).
	AnchorNodes int `json:"anchor_nodes,omitempty"`
	// AnchorInterval is the anchoring period in ticks (wall milliseconds on
	// the TCP engine): every interval, each shard whose decided log grew
	// commits a fresh (shard, epoch, prefix-digest) anchor transaction into
	// the anchor cluster. Default 50.
	AnchorInterval int64 `json:"anchor_interval,omitempty"`
	// CrossMix is the fraction of offered-load transactions carrying
	// roaming keys placed by the FNV router (realistic imbalance) instead
	// of keys pinned round-robin to shards (exactly equal per-shard rate).
	// In [0, 1); default 0.
	CrossMix float64 `json:"cross_mix,omitempty"`
}

// nodesPerShard is the defaulted shard cluster size.
func (s *ShardsSpec) nodesPerShard() int {
	if s.NodesPerShard == 0 {
		return 4
	}
	return s.NodesPerShard
}

// anchorNodes is the defaulted anchor cluster size.
func (s *ShardsSpec) anchorNodes() int {
	if s.AnchorNodes == 0 {
		return 4
	}
	return s.AnchorNodes
}

// anchorInterval is the defaulted anchoring period.
func (s *ShardsSpec) anchorInterval() int64 {
	if s.AnchorInterval == 0 {
		return 50
	}
	return s.AnchorInterval
}

// Mutation names a deliberately broken protocol variant.
type Mutation string

// Mutations (TetraBFT single-shot only).
const (
	// MutationNone runs the correct protocol.
	MutationNone Mutation = ""
	// MutationSkipRule3 makes followers vote without the Rule 3 safety
	// check — the Lemma 8 cross-view attack then violates agreement.
	MutationSkipRule3 Mutation = "skip-rule-3"
	// MutationNoPrevVote drops the second-highest-vote tracking from
	// proofs (weakens liveness, per the checker's MutationNoPrevVote).
	MutationNoPrevVote Mutation = "no-prev-vote"
)

// QuorumSpec declares a heterogeneous quorum-slice system. The membership
// is the set of nodes that declare slices.
type QuorumSpec struct {
	Slices []SliceSpec `json:"slices"`
}

// SliceSpec lists one node's quorum slices.
type SliceSpec struct {
	Node   types.NodeID     `json:"node"`
	Slices [][]types.NodeID `json:"slices"`
}

// NetworkSpec is the network regime: delay model, partial-synchrony
// parameters and the event budget.
type NetworkSpec struct {
	// Delay is the post-GST delay model (default: constant 1 tick, the
	// paper's "message delay" currency).
	Delay *DelaySpec `json:"delay,omitempty"`
	// GST is the global stabilization time; messages sent before it are
	// dropped with probability DropBeforeGST (0 = synchronous start).
	GST int64 `json:"gst,omitempty"`
	// DropBeforeGST is the pre-GST loss probability in [0, 1].
	DropBeforeGST float64 `json:"drop_before_gst,omitempty"`
	// EventBudget caps processed simulator events (0 = sim default).
	EventBudget int `json:"event_budget,omitempty"`
	// Duplicate is the per-message duplication probability in [0, 1)
	// (EngineTCP only: the chaos transport re-delivers the frame; the
	// protocols are idempotent so duplicates must be absorbed).
	Duplicate float64 `json:"duplicate,omitempty"`
}

// Delay model names.
const (
	// DelayConstant delays every message by D ticks.
	DelayConstant = "constant"
	// DelayUniform draws delays uniformly from [Min, Max].
	DelayUniform = "uniform"
	// DelayPerLink gives each directed link its own fixed delay
	// (Default for unlisted links) — asymmetric-network runs.
	DelayPerLink = "per-link"
)

// DelaySpec declares a delay model.
type DelaySpec struct {
	Model string `json:"model"`
	// D is the constant model's delay.
	D int64 `json:"d,omitempty"`
	// Min and Max bound the uniform model.
	Min int64 `json:"min,omitempty"`
	Max int64 `json:"max,omitempty"`
	// Default and Links parameterize the per-link model.
	Default int64           `json:"default,omitempty"`
	Links   []LinkDelaySpec `json:"links,omitempty"`
}

// LinkDelaySpec fixes the delay of one directed link.
type LinkDelaySpec struct {
	From types.NodeID `json:"from"`
	To   types.NodeID `json:"to"`
	D    int64        `json:"d"`
}

// FaultType names a fault behavior.
type FaultType string

// Fault behaviors. The first three replace a node's machine; the rest are
// message-level adversaries on the network.
const (
	// FaultSilent crashes Node: it never sends anything.
	FaultSilent FaultType = "silent"
	// FaultEquivocator makes Node a view-0 leader proposing ValueA to
	// half the cluster and ValueB to the other half, then going silent.
	FaultEquivocator FaultType = "equivocator"
	// FaultRandom replaces Node with a fuzzing adversary blurting random
	// protocol messages (deterministic per Seed).
	FaultRandom FaultType = "random"
	// FaultSuppressFinalPhase drops the decision-completing phase of
	// view 0 (TetraBFT vote-4, PBFT commit), forcing a maximal-evidence
	// view change.
	FaultSuppressFinalPhase FaultType = "suppress-final-phase"
	// FaultSuppressProposals drops every proposal-ish message below
	// BelowView, forcing repeated view changes.
	FaultSuppressProposals FaultType = "suppress-proposals"
	// FaultPartition drops cross-group messages during [From, To)
	// (To = 0: never heals).
	FaultPartition FaultType = "partition"
	// FaultStarveDecision drops the decision-completing phase of view 0
	// (TetraBFT vote-4, PBFT commit) for every receiver except Node,
	// before time To (0 = always): exactly one node decides in view 0 —
	// the sharpest cross-view safety setup (Lemma 8).
	FaultStarveDecision FaultType = "starve-decision"
	// FaultForgedHistory replaces Node with the Lemma 8 Byzantine leader:
	// it echoes view changes into View and, once the view starts, pushes a
	// conflicting ValueA with a forged clean history plus a full set of
	// votes. Rule 3 must reject it; MutationSkipRule3 lets it through.
	FaultForgedHistory FaultType = "forged-history"
	// FaultCrashRestart (EngineTCP only) hard-kills Node's process at
	// CrashAtMS — listener closed, connections reset mid-stream — and, if
	// RestartAtMS > 0, relaunches it from its WAL (or from scratch when
	// WipeWAL is set). The paper's recoverable-node crash–recovery model
	// (Section 3.1) made physical.
	FaultCrashRestart FaultType = "crash-restart"
)

// FaultSpec declares one fault. Only the fields of its Type are read.
type FaultSpec struct {
	Type FaultType `json:"type"`
	// Node targets the node-replacing faults (silent, equivocator,
	// random).
	Node types.NodeID `json:"node,omitempty"`
	// Shard scopes the fault to one shard cluster in a sharded run
	// (Scenario.Shards): Node then names a replica inside that cluster. A
	// flat run has one stream, so its faults leave Shard at 0.
	Shard int `json:"shard,omitempty"`
	// ValueA and ValueB are the equivocator's two proposals.
	ValueA string `json:"value_a,omitempty"`
	ValueB string `json:"value_b,omitempty"`
	// Seed, Burst, Budget, MaxView parameterize the random fuzzer.
	Seed    int64 `json:"seed,omitempty"`
	Burst   int   `json:"burst,omitempty"`
	Budget  int   `json:"budget,omitempty"`
	MaxView int64 `json:"max_view,omitempty"`
	// BelowView bounds the suppress-proposals fault.
	BelowView int64 `json:"below_view,omitempty"`
	// View is the view the forged-history leader attacks (default 1).
	View int64 `json:"view,omitempty"`
	// Groups, From, To declare the timed partition. To also bounds the
	// starve-decision fault's drop window.
	Groups [][]types.NodeID `json:"groups,omitempty"`
	From   int64            `json:"from,omitempty"`
	To     int64            `json:"to,omitempty"`
	// CrashAtMS and RestartAtMS schedule the crash-restart fault in wall
	// milliseconds from run start; RestartAtMS = 0 means the node never
	// comes back. WipeWAL discards the durable state before the restart
	// (the node rejoins as a fresh replica instead of a recovered one).
	CrashAtMS   int64 `json:"crash_at_ms,omitempty"`
	RestartAtMS int64 `json:"restart_at_ms,omitempty"`
	WipeWAL     bool  `json:"wipe_wal,omitempty"`
}

// WorkloadSpec declares the run's inputs.
type WorkloadSpec struct {
	// ValuePattern produces single-shot initial values: node i proposes
	// fmt.Sprintf(pattern, i) when the pattern contains a %d verb, the
	// pattern verbatim otherwise. Default "val-%d".
	ValuePattern string `json:"value_pattern,omitempty"`
	// InitialValues overrides the pattern per node (indexed by node ID;
	// nodes beyond the list fall back to the pattern).
	InitialValues []string `json:"initial_values,omitempty"`
	// Slots is the multi-shot finalized-slot target: leaders stop
	// proposing at Slots+3 (the pipeline depth) unless MaxSlot overrides,
	// and Stop.AllDecided waits for it.
	Slots int64 `json:"slots,omitempty"`
	// MaxSlot explicitly caps proposals (0 = derive from Slots).
	MaxSlot int64 `json:"max_slot,omitempty"`
	// Transactions are key-value transactions submitted to the named
	// node's mempool before the run; leaders pack them into blocks, at most
	// txsPerBlock a block. Setting any gives every honest node a
	// mempool-backed payload source.
	Transactions []TxSpec `json:"transactions,omitempty"`
	// TxCount switches on the offered-load stream: this many opaque
	// transactions are submitted to a cluster-shared arrival-gated pool,
	// and whoever leads a slot drains the arrived ones into its block's
	// batch. The result then reports decided-transaction counts and
	// per-transaction commit-latency percentiles. Multi-shot only;
	// mutually exclusive with Transactions.
	TxCount int `json:"tx_count,omitempty"`
	// TxRate is the offered load in transactions per 100 ticks
	// (0 = the whole TxCount arrives at time 0). TxCount bounds the
	// stream; TxRate only paces it — a rate without a count is rejected
	// with ErrRateWithoutCount rather than silently offering nothing.
	TxRate int64 `json:"tx_rate,omitempty"`
	// Arrival switches the offered-load stream from deterministic TxRate
	// pacing to a seeded open-loop arrival process (Poisson, Gamma,
	// Weibull or constant inter-arrival). The schedule is a pure function
	// of (spec, TxCount, seed), generated once and consumed identically by
	// the sim, TCP and sharded engines. Requires TxCount (the stream
	// length); mutually exclusive with TxRate and Transactions.
	Arrival *workload.ArrivalSpec `json:"arrival,omitempty"`
	// Cohorts splits the arrival stream into weighted client cohorts with
	// per-cohort key spaces (which drive shard routing) and transaction
	// sizes. Requires Arrival.
	Cohorts []workload.CohortSpec `json:"cohorts,omitempty"`
	// Phases shapes the arrival rate over time (ramp/spike/diurnal):
	// piecewise windows scaling Arrival.Rate, repeating cyclically.
	// Requires Arrival.
	Phases []workload.PhaseSpec `json:"phases,omitempty"`
	// BatchSize caps transactions per block for the offered-load stream
	// (default 8 when TxCount is set).
	BatchSize int `json:"batch_size,omitempty"`
	// Window is the proposal pipeline depth: how many consecutive
	// unnotarized ancestors a leader may optimistically build on
	// (default 1 — the paper's ancestor-notarized rule). Voting rules are
	// window-independent, so safety does not depend on this knob.
	Window int `json:"window,omitempty"`
}

// TxSpec is one key-value transaction submitted to Node's mempool.
type TxSpec struct {
	Node  types.NodeID `json:"node"`
	Op    string       `json:"op"` // "set" or "del"
	Key   string       `json:"key"`
	Value string       `json:"value,omitempty"`
}

// StopSpec declares when the run ends.
type StopSpec struct {
	// Horizon stops the virtual clock (0 = run until the event queue
	// drains).
	Horizon int64 `json:"horizon,omitempty"`
	// AllDecided additionally stops as soon as every honest node has
	// decided slot 0 (single-shot) or finalized Workload.Slots
	// (multi-shot).
	AllDecided bool `json:"all_decided,omitempty"`
	// WallClockMS bounds an EngineTCP run in real milliseconds
	// (default 30000).
	WallClockMS int64 `json:"wall_clock_ms,omitempty"`
}

// CollectSpec requests optional result payloads.
type CollectSpec struct {
	// Trace collects the full protocol event trace.
	Trace bool `json:"trace,omitempty"`
	// Chain collects finalized chains (multi-shot protocols).
	Chain bool `json:"chain,omitempty"`
	// Stages folds the event trace into Result.Stages: per-stage latency
	// percentiles (propose→vote rounds→notarize→finalize plus view-change
	// dwell), in ticks on the simulator and milliseconds on the TCP engine,
	// from one shared fold. Sharded runs additionally report per-shard
	// breakdowns. Implies tracing internally; the raw trace is returned
	// only when Trace is also set.
	Stages bool `json:"stages,omitempty"`
	// Metrics attaches an obs.Registry to the run's hot paths and returns
	// its sorted snapshot in Result.Metrics.
	Metrics bool `json:"metrics,omitempty"`
}

// Parse decodes a JSON scenario spec strictly: unknown fields are errors,
// and the decoded spec is validated.
func Parse(data []byte) (Scenario, error) {
	var sc Scenario
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sc); err != nil {
		return Scenario{}, fmt.Errorf("scenario: parse: %w", err)
	}
	if err := sc.Validate(); err != nil {
		return Scenario{}, err
	}
	return sc, nil
}

// MarshalIndent renders the spec as indented JSON (the sharable form).
func (sc Scenario) MarshalIndent() ([]byte, error) {
	return json.MarshalIndent(sc, "", "  ")
}

// plan is the validated, default-applied form of a Scenario that the
// engines execute. Building it never mutates the user's spec, so a spec
// round-trips through JSON unchanged.
type plan struct {
	sc Scenario
	// clusters is every cluster the run deploys: the flat run's one, or a
	// sharded run's S shard clusters followed by the anchor cluster.
	clusters []*cluster
	netwk    []FaultSpec // message-level faults, in schedule order
	proto    Descriptor  // the protocol's row of the table
}

// cluster is what compile states about one cluster, whichever engine runs
// it. A flat run is one cluster named "" with the scenario's seed, members
// and quorum system; a sharded run is S shard clusters ("shard i", seed +
// i) and the anchor cluster ("anchor cluster", seed + S, no faults, no slot
// cap). Node IDs are local to their cluster.
type cluster struct {
	name    string // labels errors: "shard 3", "anchor cluster"; "" for a flat run
	seed    int64
	members []types.NodeID
	honest  []types.NodeID // members without a node-replacing fault
	byzByID map[types.NodeID]*FaultSpec
	crashes []FaultSpec   // crash-restart schedule (EngineTCP)
	qs      quorum.System // nil = threshold over members
	maxSlot types.Slot    // proposal cap, 0 = none
}

// newCluster is a fault-free cluster of members.
func newCluster(name string, seed int64, members []types.NodeID, qs quorum.System, maxSlot types.Slot) *cluster {
	return &cluster{name: name, seed: seed, members: members, byzByID: make(map[types.NodeID]*FaultSpec), qs: qs, maxSlot: maxSlot}
}

// nodeIDs is the membership 0, 1, …, n-1.
func nodeIDs(n int) []types.NodeID {
	ids := make([]types.NodeID, n)
	for i := range ids {
		ids[i] = types.NodeID(i)
	}
	return ids
}

// label names member id of c in errors: "node 2", or "shard 1 replica 2".
func (c *cluster) label(noun string, id types.NodeID) string {
	return strings.TrimSpace(fmt.Sprintf("%s %s %d", c.name, noun, id))
}

// place records f, a node-replacing or crash-restart fault aimed at one of
// c's members.
func (c *cluster) place(f *FaultSpec, engine Engine) error {
	if f.Type != FaultCrashRestart {
		if engine == EngineTCP && f.Type != FaultSilent {
			return fmt.Errorf("scenario: engine %q supports only silent node faults", EngineTCP)
		}
		if c.byzByID[f.Node] != nil {
			return fmt.Errorf("scenario: %s has two node-replacing faults", c.label("node", f.Node))
		}
		c.byzByID[f.Node] = f
		return nil
	}
	if engine != EngineTCP {
		return fmt.Errorf("scenario: crash-restart requires engine %q (the simulator has no processes to kill)", EngineTCP)
	}
	if f.CrashAtMS < 0 || f.RestartAtMS < 0 {
		return fmt.Errorf("scenario: negative crash-restart schedule")
	}
	if f.RestartAtMS != 0 && f.RestartAtMS <= f.CrashAtMS {
		return fmt.Errorf("scenario: %s restarts at %dms, before its crash at %dms", c.label("node", f.Node), f.RestartAtMS, f.CrashAtMS)
	}
	for _, x := range c.crashes {
		if x.Node == f.Node {
			return fmt.Errorf("scenario: %s has two crash-restart faults", c.label("node", f.Node))
		}
	}
	c.crashes = append(c.crashes, *f)
	return nil
}

// seal derives c's honest members once every fault is placed.
func (c *cluster) seal() error {
	for _, f := range c.crashes {
		if c.byzByID[f.Node] != nil {
			return fmt.Errorf("scenario: %s is both Byzantine and crash-restarted", c.label("node", f.Node))
		}
	}
	for _, m := range c.members {
		if c.byzByID[m] == nil {
			c.honest = append(c.honest, m)
		}
	}
	if len(c.honest) == 0 {
		return fmt.Errorf("scenario: every node is faulty")
	}
	return nil
}

// fail labels a failed run's err with the scenario's name and the cluster's.
func (p *plan) fail(c *cluster, err error) error {
	if c.name == "" {
		return fmt.Errorf("scenario %q: %w", p.sc.Name, err)
	}
	return fmt.Errorf("scenario %q: %s: %w", p.sc.Name, c.name, err)
}

// Validate checks the spec without running it.
func (sc Scenario) Validate() error {
	_, err := sc.compile()
	return err
}

// compile validates the spec and derives the execution plan. A flat spec is
// the one-stream, no-anchor case of a sharded one: the same steps check and
// build both.
func (sc Scenario) compile() (*plan, error) {
	row, ok := Lookup(sc.Protocol)
	if !ok {
		return nil, fmt.Errorf("scenario: unknown protocol %q", sc.Protocol)
	}
	p := &plan{sc: sc, proto: row}
	deploy := p.deployFlat
	if sc.Shards != nil {
		deploy = p.deploySharded
	}
	for _, step := range []func() error{p.checkShared, deploy, p.placeFaults, p.checkWorkload, p.checkByzantine} {
		if err := step(); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// maxNodes bounds a flat cluster, and a sharded run's clusters together,
// before validation sizes anything by n: a broadcast round among n nodes is
// n² deliveries, so at 4,096 nodes one multishot slot is 1.7·10⁷ simulator
// events, and the TCP engine would open as many connections.
const maxNodes = 4096

// checkShared checks what flat and sharded specs have in common: the
// cluster size, the engine, seed and delta, the network regime, the knobs
// the TCP engine cannot honor, the workload's counts and offered load, and
// the stop bounds.
func (p *plan) checkShared() error {
	sc := p.sc
	if sc.Nodes > maxNodes {
		return fmt.Errorf("scenario: nodes = %d above the %d-node bound", sc.Nodes, maxNodes)
	}
	switch sc.Engine {
	case "", EngineSim:
	case EngineTCP:
		if !p.proto.TCP {
			return fmt.Errorf("scenario: engine %q supports only %s", EngineTCP, rowNames(func(d Descriptor) bool { return d.TCP }))
		}
	default:
		return fmt.Errorf("scenario: unknown engine %q", sc.Engine)
	}
	if sc.Seed < 0 {
		return fmt.Errorf("scenario: negative seed %d", sc.Seed)
	}
	if sc.Delta < 0 || sc.TimeoutFactor < 0 {
		return fmt.Errorf("scenario: negative delta or timeout_factor")
	}

	// Network regime.
	nw := sc.Network
	if nw.DropBeforeGST < 0 || nw.DropBeforeGST > 1 {
		return fmt.Errorf("scenario: drop_before_gst = %v outside [0, 1]", nw.DropBeforeGST)
	}
	if nw.DropBeforeGST > 0 && nw.GST == 0 {
		// Only messages sent before GST are dropped, so the rate alone
		// would silently lose nothing.
		return fmt.Errorf("scenario: drop_before_gst = %v without gst drops nothing (set network.gst)", nw.DropBeforeGST)
	}
	if nw.GST < 0 || nw.EventBudget < 0 {
		return fmt.Errorf("scenario: negative gst or event_budget")
	}
	if nw.Delay != nil {
		if nw.Delay.D < 0 || nw.Delay.Min < 0 || nw.Delay.Max < 0 || nw.Delay.Default < 0 {
			return fmt.Errorf("scenario: negative delay")
		}
		switch nw.Delay.Model {
		case DelayConstant, DelayUniform, DelayPerLink:
		default:
			return fmt.Errorf("scenario: unknown delay model %q", nw.Delay.Model)
		}
	}
	if sc.Engine == EngineTCP {
		// Reject knobs the TCP engine cannot honor rather than silently
		// dropping them. The network regime maps onto the chaos transport
		// (constant/uniform delay, pre-GST loss, duplication); per-link
		// delay, event budgets and virtual-time stops stay sim-only.
		if nw.EventBudget != 0 {
			return fmt.Errorf("scenario: engine %q has no event budget", EngineTCP)
		}
		if nw.Delay != nil && nw.Delay.Model == DelayPerLink {
			return fmt.Errorf("scenario: engine %q does not support per-link delays", EngineTCP)
		}
		if sc.Stop.Horizon != 0 || sc.Stop.AllDecided {
			return fmt.Errorf("scenario: engine %q stops on workload.slots + stop.wall_clock_ms only", EngineTCP)
		}
		if sc.Workload.Slots == 0 {
			return fmt.Errorf("scenario: engine %q needs workload.slots", EngineTCP)
		}
	} else if nw.Duplicate != 0 {
		return fmt.Errorf("scenario: network.duplicate applies only to engine %q", EngineTCP)
	}
	if nw.Duplicate < 0 || nw.Duplicate >= 1 {
		return fmt.Errorf("scenario: network.duplicate = %v outside [0, 1)", nw.Duplicate)
	}

	// Workload.
	w := sc.Workload
	if w.Slots < 0 || w.MaxSlot < 0 {
		return fmt.Errorf("scenario: negative slots or max_slot")
	}
	if w.TxCount < 0 || w.TxRate < 0 || w.BatchSize < 0 || w.Window < 0 {
		return fmt.Errorf("scenario: negative tx_count, tx_rate, batch_size or window")
	}
	if w.TxCount > 0 && len(w.Transactions) > 0 {
		return fmt.Errorf("scenario: tx_count (offered-load stream) and transactions (explicit mempool) are mutually exclusive")
	}
	if err := validateOfferedLoad(w); err != nil {
		return err
	}

	if sc.Stop.Horizon < 0 || sc.Stop.WallClockMS < 0 {
		return fmt.Errorf("scenario: negative stop bound")
	}
	return nil
}

// deployFlat checks the membership, per-link delays and mutation of a flat
// spec and builds its one cluster.
func (p *plan) deployFlat() error {
	sc := p.sc
	// Membership: explicit Nodes, or derived from the quorum slices.
	var qs quorum.System
	var members []types.NodeID
	if sc.Quorum != nil {
		if !p.proto.Slices {
			return fmt.Errorf("scenario: protocol %q does not support quorum slices", sc.Protocol)
		}
		if len(sc.Quorum.Slices) == 0 {
			return fmt.Errorf("scenario: quorum spec declares no slices")
		}
		byNode := make(map[types.NodeID][]quorum.Set, len(sc.Quorum.Slices))
		for _, s := range sc.Quorum.Slices {
			if _, dup := byNode[s.Node]; dup {
				return fmt.Errorf("scenario: node %d declares slices twice", s.Node)
			}
			sets := make([]quorum.Set, 0, len(s.Slices))
			for _, members := range s.Slices {
				sets = append(sets, quorum.NewSet(members...))
			}
			byNode[s.Node] = sets
		}
		var err error
		if qs, err = quorum.NewSlices(byNode); err != nil {
			return fmt.Errorf("scenario: %w", err)
		}
		members = qs.Members()
		if sc.Nodes != 0 && sc.Nodes != len(members) {
			return fmt.Errorf("scenario: nodes = %d but the quorum spec names %d members", sc.Nodes, len(members))
		}
	} else {
		if sc.Nodes <= 0 {
			return fmt.Errorf("scenario: cluster size missing (set nodes or a quorum spec)")
		}
		members = nodeIDs(sc.Nodes)
	}
	p.clusters = []*cluster{newCluster("", p.seed(), members, qs, p.proposalCap())}

	if d := sc.Network.Delay; d != nil && d.Model == DelayPerLink {
		for _, l := range d.Links {
			if !slices.Contains(members, l.From) || !slices.Contains(members, l.To) {
				return fmt.Errorf("scenario: per-link delay names non-member link %d→%d", l.From, l.To)
			}
			if l.D < 0 {
				return fmt.Errorf("scenario: negative delay on link %d→%d", l.From, l.To)
			}
		}
	}

	switch sc.Mutation {
	case MutationNone:
	case MutationSkipRule3, MutationNoPrevVote:
		if !p.proto.Mutations {
			return fmt.Errorf("scenario: mutation %q applies only to %s", sc.Mutation, rowNames(func(d Descriptor) bool { return d.Mutations }))
		}
	default:
		return fmt.Errorf("scenario: unknown mutation %q", sc.Mutation)
	}
	return nil
}

// deploySharded checks what is specific to a sharded-service spec
// (Scenario.Shards) and builds its clusters: S shard clusters, then the
// anchor cluster.
func (p *plan) deploySharded() error {
	sc := p.sc
	sh := sc.Shards
	if !p.proto.Shards {
		return fmt.Errorf("scenario: shards require %s", rowNames(func(d Descriptor) bool { return d.Shards }))
	}
	if sc.Nodes != 0 {
		return fmt.Errorf("scenario: shards and nodes are mutually exclusive (size clusters with shards.nodes_per_shard)")
	}
	if sc.Quorum != nil {
		return fmt.Errorf("scenario: shards do not support quorum slices")
	}
	if sc.Mutation != MutationNone {
		return fmt.Errorf("scenario: shards do not support mutations")
	}
	if sh.Count < 1 || sh.Count > 16 {
		return fmt.Errorf("scenario: shards.count = %d outside [1, 16]", sh.Count)
	}
	if sh.NodesPerShard != 0 && sh.NodesPerShard < 4 {
		return fmt.Errorf("scenario: shards.nodes_per_shard = %d below the n ≥ 3f+1 minimum of 4", sh.NodesPerShard)
	}
	if sh.AnchorNodes != 0 && sh.AnchorNodes < 4 {
		return fmt.Errorf("scenario: shards.anchor_nodes = %d below the n ≥ 3f+1 minimum of 4", sh.AnchorNodes)
	}
	// Each factor is bounded first, so the sum cannot overflow.
	if n, a := sh.nodesPerShard(), sh.anchorNodes(); n > maxNodes || a > maxNodes || sh.Count*n+a > maxNodes {
		return fmt.Errorf("scenario: shards.count × nodes_per_shard + anchor_nodes = %d × %d + %d exceeds the %d-node bound", sh.Count, n, a, maxNodes)
	}
	if sh.AnchorInterval < 0 {
		return fmt.Errorf("scenario: negative shards.anchor_interval")
	}
	if sh.CrossMix < 0 || sh.CrossMix >= 1 {
		return fmt.Errorf("scenario: shards.cross_mix = %v outside [0, 1)", sh.CrossMix)
	}

	// Network regime: the same model is applied inside every cluster.
	// Per-link delays are rejected because node IDs are cluster-local —
	// a link spec could not say which cluster it means.
	if sc.Network.EventBudget != 0 {
		return fmt.Errorf("scenario: shards do not support an event budget")
	}
	if d := sc.Network.Delay; d != nil && d.Model == DelayPerLink {
		return fmt.Errorf("scenario: shards do not support per-link delays (node IDs are cluster-local)")
	}

	// Workload: the offered-load stream is the only input shape (per-shard
	// TxCount/TxRate); the explicit-mempool and cap knobs stay unsharded.
	w := sc.Workload
	if w.Slots <= 0 {
		return fmt.Errorf("scenario: shards need workload.slots (the per-shard finalized-slot target)")
	}
	if w.MaxSlot != 0 {
		return fmt.Errorf("scenario: shards derive the proposal cap from workload.slots; max_slot must be 0")
	}
	if len(w.Transactions) != 0 {
		return fmt.Errorf("scenario: shards support only the offered-load stream (tx_count), not explicit transactions")
	}

	// Stop condition: virtual horizon on sim, slots + wall clock on TCP.
	if sc.Stop.AllDecided {
		return fmt.Errorf("scenario: shards stop on their own completion rule; stop.all_decided must be false")
	}
	if sc.Engine != EngineTCP && sc.Stop.Horizon == 0 {
		return fmt.Errorf("scenario: sharded sim runs need stop.horizon (lockstep clusters never drain the event queue)")
	}
	// Raw traces and chains stay per-cluster artifacts; the fold keeps only
	// their stage/latency summaries. Collect.Stages and Collect.Metrics are
	// honored: stages fold per shard and pool into the aggregate breakdown.
	if sc.Collect.Trace || sc.Collect.Chain {
		return fmt.Errorf("scenario: shards do not collect traces or chains (the result folds per-shard stats)")
	}

	for i := range sh.Count {
		p.clusters = append(p.clusters, newCluster(fmt.Sprintf("shard %d", i), p.seed()+int64(i), nodeIDs(sh.nodesPerShard()), nil, p.proposalCap()))
	}
	// The anchor cluster proposes without a slot cap: its pipeline keeps
	// filling slots with empty blocks between anchor arrivals, and a cap
	// would be exhausted before the last shard's final anchor lands.
	p.clusters = append(p.clusters, newCluster("anchor cluster", p.seed()+int64(sh.Count), nodeIDs(sh.anchorNodes()), nil, 0))
	return nil
}

// placeFaults puts each node fault into the stream cluster its shard names
// and each message-level fault into p.netwk, then seals every cluster. A
// flat run has one stream, so its faults name shard 0. A sharded run takes
// only silent replicas (both engines) and crash-restarts (TCP), and the
// anchor cluster cannot be faulted: it is the trust root the cross-shard
// consistency check hangs off.
func (p *plan) placeFaults() error {
	sc := p.sc
	for i := range sc.Faults {
		f := &sc.Faults[i]
		if f.Shard < 0 || f.Shard >= p.streams() {
			return fmt.Errorf("scenario: %s fault targets shard %d outside [0, %d)", f.Type, f.Shard, p.streams())
		}
		c := p.clusters[f.Shard]
		if sc.Shards != nil {
			if !slices.Contains(c.members, f.Node) {
				return fmt.Errorf("scenario: %s fault targets node %d outside shard %d's membership [0, %d)", f.Type, f.Node, f.Shard, len(c.members))
			}
			if f.Type != FaultSilent && f.Type != FaultCrashRestart {
				return fmt.Errorf("scenario: shards support only silent and crash-restart faults, not %q", f.Type)
			}
		}
		switch f.Type {
		case FaultSilent, FaultEquivocator, FaultRandom, FaultForgedHistory, FaultCrashRestart:
			if f.Type == FaultForgedHistory && f.View < 0 {
				return fmt.Errorf("scenario: forged-history view is negative")
			}
			if !slices.Contains(c.members, f.Node) {
				return fmt.Errorf("scenario: %s fault targets non-member node %d", f.Type, f.Node)
			}
			if err := c.place(f, sc.Engine); err != nil {
				return err
			}
		case FaultSuppressFinalPhase:
			p.netwk = append(p.netwk, *f)
		case FaultStarveDecision:
			if !slices.Contains(c.members, f.Node) {
				return fmt.Errorf("scenario: starve-decision spares non-member node %d", f.Node)
			}
			if f.To < 0 {
				return fmt.Errorf("scenario: starve-decision to is negative")
			}
			// The adversary matches TetraBFT vote-4 and PBFT commit only;
			// on other protocols it would silently drop nothing.
			if !p.proto.StarveDecision {
				return fmt.Errorf("scenario: starve-decision applies only to %s", rowNames(func(d Descriptor) bool { return d.StarveDecision }))
			}
			p.netwk = append(p.netwk, *f)
		case FaultSuppressProposals:
			if f.BelowView < 0 {
				return fmt.Errorf("scenario: suppress-proposals below_view is negative")
			}
			p.netwk = append(p.netwk, *f)
		case FaultPartition:
			if len(f.Groups) == 0 {
				return fmt.Errorf("scenario: partition fault declares no groups")
			}
			seen := make(map[types.NodeID]bool)
			for _, g := range f.Groups {
				for _, n := range g {
					if !slices.Contains(c.members, n) {
						return fmt.Errorf("scenario: partition group names non-member node %d", n)
					}
					if seen[n] {
						return fmt.Errorf("scenario: node %d appears in two partition groups", n)
					}
					seen[n] = true
				}
			}
			if f.From < 0 || (f.To != 0 && f.To <= f.From) {
				return fmt.Errorf("scenario: partition window [%d, %d) is empty", f.From, f.To)
			}
			p.netwk = append(p.netwk, *f)
		default:
			return fmt.Errorf("scenario: unknown fault type %q", f.Type)
		}
	}
	for _, c := range p.clusters {
		if err := c.seal(); err != nil {
			return err
		}
	}
	if sc.Engine == EngineTCP {
		// Message-level adversaries need to inspect decoded protocol
		// traffic; over TCP only link-level partitions are honored (the
		// chaos transport severs frames, not messages).
		for _, f := range p.netwk {
			if f.Type != FaultPartition {
				return fmt.Errorf("scenario: engine %q supports only partition network faults, not %q", EngineTCP, f.Type)
			}
		}
	}
	return nil
}

// checkWorkload checks the workload and stop against the protocol, and the
// knobs a chained row cannot honor. A sharded spec passes: its protocol is
// multi-shot and unchained, and it has no transactions or all_decided stop.
func (p *plan) checkWorkload() error {
	sc, row, c := p.sc, p.proto, p.clusters[0]
	w := sc.Workload
	if !row.multiSlot() && (w.Slots != 0 || w.MaxSlot != 0 || len(w.Transactions) != 0 ||
		w.TxCount != 0 || w.TxRate != 0 || w.BatchSize != 0 || w.Window != 0 ||
		w.Arrival != nil || len(w.Cohorts) != 0 || len(w.Phases) != 0) {
		return fmt.Errorf("scenario: slots/max_slot/transactions/tx_count/arrival/window require a multi-shot protocol")
	}
	for _, tx := range w.Transactions {
		if tx.Op != "set" && tx.Op != "del" {
			return fmt.Errorf("scenario: unknown transaction op %q (want set or del)", tx.Op)
		}
		if !slices.Contains(c.members, tx.Node) {
			return fmt.Errorf("scenario: transaction targets non-member node %d", tx.Node)
		}
		if c.byzByID[tx.Node] != nil {
			return fmt.Errorf("scenario: transaction targets faulty node %d", tx.Node)
		}
	}

	if sc.Stop.AllDecided && row.multiSlot() && w.Slots == 0 {
		return fmt.Errorf("scenario: stop.all_decided on a multi-shot run needs workload.slots")
	}

	// The chained single-shot baselines run whole sub-instances per slot on
	// one virtual clock, so knobs whose semantics span slots (pipelining,
	// mid-run faults, GST epochs) have no meaning there.
	if row.Chains != "" {
		if w.Slots <= 0 {
			return fmt.Errorf("scenario: protocol %q needs workload.slots", sc.Protocol)
		}
		if sc.Stop.Horizon <= 0 {
			return fmt.Errorf("scenario: protocol %q needs stop.horizon (the shared clock's budget)", sc.Protocol)
		}
		if w.Window != 0 || w.MaxSlot != 0 || len(w.Transactions) != 0 {
			return fmt.Errorf("scenario: protocol %q supports only the offered-load workload (no window/max_slot/transactions)", sc.Protocol)
		}
		if nw := sc.Network; nw.GST != 0 || nw.DropBeforeGST != 0 || nw.EventBudget != 0 {
			return fmt.Errorf("scenario: protocol %q does not support gst/drop_before_gst/event_budget", sc.Protocol)
		}
		for _, f := range c.byzByID {
			if f.Type != FaultSilent {
				return fmt.Errorf("scenario: protocol %q supports only silent faults, not %q", sc.Protocol, f.Type)
			}
		}
		if len(p.netwk) != 0 {
			return fmt.Errorf("scenario: protocol %q does not support message-level adversaries", sc.Protocol)
		}
		if sc.Collect.Trace || sc.Collect.Stages || sc.Collect.Metrics {
			return fmt.Errorf("scenario: protocol %q does not collect traces, stages or metrics", sc.Protocol)
		}
	}
	return nil
}

// checkByzantine refuses a Byzantine node fault on a row whose nodes do not
// read its messages: there it would silently be a crashed node, a misleading
// experiment. It runs last, so the engine, shard and chained-row texts win.
func (p *plan) checkByzantine() error {
	for _, f := range p.sc.Faults {
		if slices.Contains(byzantineFaults, f.Type) && !p.proto.Byzantine(f.Type) {
			return fmt.Errorf("scenario: %s applies only to %s", f.Type, rowNames(func(d Descriptor) bool { return d.Byzantine(f.Type) }))
		}
	}
	return nil
}

// Defaulted parameters.

// streams is how many clusters carry the offered load and the faults: the
// flat run's one, or a sharded run's S shard clusters.
func (p *plan) streams() int {
	if p.sc.Shards == nil {
		return 1
	}
	return p.sc.Shards.Count
}

func (p *plan) seed() int64 { return cmp.Or(p.sc.Seed, 1) }

func (p *plan) delta() types.Duration { return types.Duration(cmp.Or(p.sc.Delta, 10)) }

// batchSize is the offered-load stream's per-block transaction cap.
func (p *plan) batchSize() int {
	if b := p.sc.Workload.BatchSize; b > 0 {
		return b
	}
	return 8
}

// txsPerBlock is the per-block cap on a replica's own mempool transactions.
const txsPerBlock = 8

// proposalCap is the multi-shot proposal cap: workload.max_slot, or else
// slots + 3, which keeps the ≤5-deep pipeline from overshooting the target.
func (p *plan) proposalCap() types.Slot {
	w := p.sc.Workload
	if w.MaxSlot == 0 && w.Slots > 0 {
		return types.Slot(w.Slots + 3)
	}
	return types.Slot(w.MaxSlot)
}

// validateOfferedLoad checks the offered-load knob interactions: pacing
// without a count is ErrRateWithoutCount, arrival replaces (not composes
// with) tx_rate, and cohorts/phases only shape an arrival-process stream.
func validateOfferedLoad(w WorkloadSpec) error {
	if (w.TxRate > 0 || w.Arrival != nil) && w.TxCount == 0 {
		return ErrRateWithoutCount
	}
	if w.Arrival == nil {
		if len(w.Cohorts) != 0 || len(w.Phases) != 0 {
			return fmt.Errorf("scenario: workload.cohorts/phases require workload.arrival")
		}
		return nil
	}
	if w.TxRate != 0 {
		return fmt.Errorf("scenario: workload.arrival and tx_rate are mutually exclusive (the arrival process is the pacing)")
	}
	if err := (workload.Spec{Arrival: *w.Arrival, Cohorts: w.Cohorts, Phases: w.Phases}).Validate(); err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	return nil
}

// offeredStream generates the offered-load stream into dst: count arrivals
// in arrival order, each with its payload and routing key. Every engine
// (sim, TCP, sharded) consumes this one stream, so it is byte-identical
// across engines and GOMAXPROCS values. scale multiplies the offered rate
// for sharded runs (tx_count and tx_rate are per shard; the service-wide
// stream is scale × both).
func (p *plan) offeredStream(count, scale int, dst workload.Sink) {
	w := p.sc.Workload
	if w.Arrival == nil {
		// Legacy deterministic pacing: TxRate per 100 ticks, synthetic
		// account keys for the shard router.
		workload.Paced(count, w.TxRate*int64(scale), dst)
		return
	}
	a := *w.Arrival
	a.Rate *= float64(scale)
	if err := (workload.Spec{Arrival: a, Cohorts: w.Cohorts, Phases: w.Phases}).Generate(count, p.seed(), dst); err != nil {
		// compile() validated the spec; a failure here is a programming error.
		panic(fmt.Sprintf("scenario: offered schedule: %v", err))
	}
}

// initialValue resolves node's single-shot consensus input.
func (p *plan) initialValue(node types.NodeID) types.Value {
	w := p.sc.Workload
	if int(node) >= 0 && int(node) < len(w.InitialValues) {
		return types.Value(w.InitialValues[node])
	}
	pattern := cmp.Or(w.ValuePattern, "val-%d")
	if strings.Contains(pattern, "%d") {
		return types.Value(fmt.Sprintf(pattern, node))
	}
	return types.Value(pattern)
}
