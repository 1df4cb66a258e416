// Package tetrabft is a from-scratch Go implementation of TetraBFT
// (Yu, Losa, Wang — PODC 2024): an unauthenticated, optimistically
// responsive, partially synchronous Byzantine fault tolerant consensus
// protocol with optimal resilience (n ≥ 3f+1), constant persistent storage,
// O(n²) communication per view and a good-case latency of 5 message delays
// — plus its pipelined multi-shot extension that finalizes one block per
// message delay.
//
// The package is a façade over the implementation packages:
//
//   - RunScenario — the declarative experiment API: one JSON-serializable
//     Scenario spec describes cluster, faults, network regime, workload and
//     stop condition, and one call runs it (see examples/ and the bundled
//     NamedScenarios);
//   - RunScenarioWithGateway — the sharded service layer: shard clusters
//     plus an anchor cluster behind a client-facing HTTP gateway
//     (Scenario.Shards; see examples/kvstore);
//   - NewNode / Restore — single-shot consensus (Section 3 of the paper);
//   - NewChain — multi-shot, pipelined blockchain replication (Section 6);
//   - NewSim — the deterministic discrete-event network simulator used by
//     the paper-reproduction experiments;
//   - NewRuntime — a real TCP runtime for deployments;
//   - OpenWAL — crash-durable storage of the constant-size node state;
//   - NewMempool / NewKV / NewChainStore — ledger substrate.
//
// Quick start (see examples/quickstart for the full program):
//
//	s := tetrabft.NewSim(tetrabft.SimConfig{Seed: 1})
//	for i := 0; i < 4; i++ {
//		n, _ := tetrabft.NewNode(tetrabft.Config{
//			ID: tetrabft.NodeID(i), Nodes: 4, InitialValue: "hello",
//		})
//		s.Add(n)
//	}
//	_ = s.Run(0, nil)
//	d, _ := s.Decision(0, 0) // decided after exactly 5 message delays
//
// # Performance
//
// The simulator hot path is allocation-free: byte accounting uses the
// analytic types.EncodedSize (field widths, not serialization) and the
// event queue is an inlined value-typed 4-ary heap, so a send or an
// n-receiver broadcast costs zero heap allocations (pinned by
// testing.AllocsPerRun regression tests in internal/sim). The experiment
// sweeps in internal/sweep and the model-checker exploration in
// internal/checker fan independent runs out over a GOMAXPROCS-bounded
// worker pool while staying byte-identical with sequential execution: same
// seed, same decisions, same byte counts, same explored-state counts,
// regardless of core count. `tetrabft-bench -json FILE` records a perf
// snapshot (every paper sweep's result plus wall-clock timings) for
// tracking the trajectory across commits.
package tetrabft

import (
	"tetrabft/internal/blockchain"
	"tetrabft/internal/core"
	"tetrabft/internal/multishot"
	"tetrabft/internal/quorum"
	"tetrabft/internal/scenario"
	"tetrabft/internal/shard"
	"tetrabft/internal/sim"
	"tetrabft/internal/sweep"
	"tetrabft/internal/trace"
	"tetrabft/internal/transport"
	"tetrabft/internal/types"
	"tetrabft/internal/wal"
	"tetrabft/internal/workload"
)

// Core vocabulary, shared by every component.
type (
	// NodeID identifies a consensus node (0..n-1).
	NodeID = types.NodeID
	// View is a view (round) number.
	View = types.View
	// Slot is a position in the replicated log (1-based; 0 = single-shot).
	Slot = types.Slot
	// Value is an opaque consensus value.
	Value = types.Value
	// Time is virtual time in ticks (one tick = one message delay in the
	// latency experiments).
	Time = types.Time
	// Duration is a span of virtual time.
	Duration = types.Duration
	// Message is any wire message.
	Message = types.Message
	// Machine is a deterministic protocol state machine.
	Machine = types.Machine
	// Env is the effect interface machines act through.
	Env = types.Env
	// Block is a blockchain block.
	Block = types.Block
	// BlockID is a block's hash-pointer identity.
	BlockID = types.BlockID
)

// Single-shot consensus (the paper's primary contribution, Section 3).
type (
	// Config parameterizes a TetraBFT node.
	Config = core.Config
	// Node is a single-shot TetraBFT node.
	Node = core.Node
	// PersistentState is the constant-size durable state of a node.
	PersistentState = core.PersistentState
	// Persister stores durable state (see OpenWAL for the disk version).
	Persister = core.Persister
)

// NewNode builds a fresh single-shot TetraBFT node starting in view 0.
func NewNode(cfg Config) (*Node, error) { return core.NewNode(cfg) }

// Restore rebuilds a node from persisted state after a crash.
func Restore(cfg Config, state PersistentState) (*Node, error) {
	return core.Restore(cfg, state)
}

// Multi-shot pipelined replication (Section 6).
type (
	// ChainConfig parameterizes a multi-shot node.
	ChainConfig = multishot.Config
	// ChainNode is a pipelined multi-shot TetraBFT node.
	ChainNode = multishot.Node
)

// NewChain builds a multi-shot (blockchain) TetraBFT node.
func NewChain(cfg ChainConfig) (*ChainNode, error) { return multishot.NewNode(cfg) }

// Deterministic simulation.
type (
	// SimConfig parameterizes a simulation run.
	SimConfig = sim.Config
	// Sim is the deterministic discrete-event network runner.
	Sim = sim.Runner
	// DelayModel produces per-message network delays.
	DelayModel = sim.DelayModel
	// ConstantDelay delays every message by a fixed amount.
	ConstantDelay = sim.ConstantDelay
	// UniformDelay draws delays uniformly from [Min, Max].
	UniformDelay = sim.UniformDelay
	// PerLinkDelay gives each directed link its own fixed delay
	// (asymmetric, geographically skewed networks).
	PerLinkDelay = sim.PerLinkDelay
	// Adversary inspects and manipulates in-flight traffic.
	Adversary = sim.Adversary
	// Partition drops cross-group messages during [From, To).
	Partition = sim.Partition
	// Verdict is an adversary's ruling on one message.
	Verdict = sim.Verdict
	// Decision records one node's decision for one slot.
	Decision = sim.Decision
)

// NewSim creates a deterministic simulator.
func NewSim(cfg SimConfig) *Sim { return sim.New(cfg) }

// Real networking.
type (
	// RuntimeConfig parameterizes a TCP runtime.
	RuntimeConfig = transport.Config
	// Runtime hosts one Machine over TCP.
	Runtime = transport.Runtime
)

// NewRuntime creates a TCP runtime hosting machine; call SetPeers then Run.
func NewRuntime(machine Machine, cfg RuntimeConfig) (*Runtime, error) {
	return transport.New(machine, cfg)
}

// Durable storage.
type (
	// WAL stores a node's constant-size durable state on disk.
	WAL = wal.WAL
)

// OpenWAL creates (or reuses) the durable store rooted at dir.
func OpenWAL(dir string) (*WAL, error) { return wal.Open(dir) }

// Ledger substrate.
type (
	// Tx is an opaque transaction.
	Tx = blockchain.Tx
	// Mempool is a bounded FIFO of pending transactions.
	Mempool = blockchain.Mempool
	// ChainStore validates and records the finalized chain.
	ChainStore = blockchain.Store
	// KV is the replicated key-value state machine.
	KV = blockchain.KV
)

// NewMempool creates a mempool (limit <= 0 means 4096).
func NewMempool(limit int) *Mempool { return blockchain.NewMempool(limit) }

// NewChainStore creates an empty chain store.
func NewChainStore() *ChainStore { return blockchain.NewStore() }

// NewKV creates an empty replicated key-value store.
func NewKV() *KV { return blockchain.NewKV() }

// SetTx builds a "set key = value" transaction.
func SetTx(key, value string) Tx { return blockchain.SetTx(key, value) }

// DelTx builds a "delete key" transaction.
func DelTx(key string) Tx { return blockchain.DelTx(key) }

// EncodePayload packs transactions into a block payload.
func EncodePayload(txs []Tx) []byte { return blockchain.EncodePayload(txs) }

// DecodePayload unpacks a block payload.
func DecodePayload(p []byte) ([]Tx, error) { return blockchain.DecodePayload(p) }

// Quorum systems.
type (
	// QuorumSystem answers quorum and blocking-set questions.
	QuorumSystem = quorum.System
	// Threshold is the classic n ≥ 3f+1 threshold system.
	Threshold = quorum.Threshold
	// Slices is a heterogeneous (FBA-style) quorum-slice system, per the
	// paper's observation that TetraBFT transfers to heterogeneous trust.
	Slices = quorum.Slices
	// NodeSet is a set of node identities (used in slice definitions).
	NodeSet = quorum.Set
)

// NewThreshold builds a threshold quorum system for n nodes.
func NewThreshold(n int) (Threshold, error) { return quorum.NewThreshold(n) }

// NewSlices builds a heterogeneous quorum-slice system.
func NewSlices(slices map[NodeID][]NodeSet) (*Slices, error) {
	return quorum.NewSlices(slices)
}

// QuorumSet builds a node set for slice definitions.
func QuorumSet(nodes ...NodeID) NodeSet { return quorum.NewSet(nodes...) }

// Declarative scenarios: one spec for cluster + faults + network +
// workload; see package scenario for the full field reference and
// EXPERIMENTS.md for a worked JSON example.
type (
	// Scenario is the declarative, JSON-serializable spec for one run.
	Scenario = scenario.Scenario
	// ScenarioResult is what a scenario run measured.
	ScenarioResult = scenario.Result
	// ScenarioProtocol names a runnable consensus protocol.
	ScenarioProtocol = scenario.Protocol
	// ScenarioEngine selects the execution substrate (sim or tcp).
	ScenarioEngine = scenario.Engine
	// QuorumSpec declares heterogeneous quorum slices in a scenario.
	QuorumSpec = scenario.QuorumSpec
	// SliceSpec lists one node's quorum slices.
	SliceSpec = scenario.SliceSpec
	// NetworkSpec is a scenario's network regime.
	NetworkSpec = scenario.NetworkSpec
	// DelaySpec declares a scenario's delay model.
	DelaySpec = scenario.DelaySpec
	// LinkDelaySpec fixes the delay of one directed link.
	LinkDelaySpec = scenario.LinkDelaySpec
	// FaultType names a scenario fault behavior.
	FaultType = scenario.FaultType
	// ScenarioMutation names a deliberately broken protocol variant.
	ScenarioMutation = scenario.Mutation
	// FaultSpec declares one fault in a scenario's schedule.
	FaultSpec = scenario.FaultSpec
	// WorkloadSpec declares a scenario's inputs.
	WorkloadSpec = scenario.WorkloadSpec
	// TxSpec is one key-value transaction in a scenario workload.
	TxSpec = scenario.TxSpec
	// ArrivalSpec declares an open-loop arrival process for the offered
	// load (workload.arrival): Poisson, Gamma, Weibull or constant
	// inter-arrivals at a mean rate in txs per 100 ticks.
	ArrivalSpec = workload.ArrivalSpec
	// CohortSpec is one traffic cohort in an open-loop mix: a weight, a
	// key space and a transaction size.
	CohortSpec = workload.CohortSpec
	// PhaseSpec is one segment of a piecewise time-varying rate profile.
	PhaseSpec = workload.PhaseSpec
	// StopSpec declares when a scenario run ends.
	StopSpec = scenario.StopSpec
	// CollectSpec requests optional scenario result payloads.
	CollectSpec = scenario.CollectSpec
	// NodeDecision records one node's decision in a scenario result.
	NodeDecision = scenario.NodeDecision
	// NodeTransport is one replica's TCP link counters in a scenario
	// result (reconnects, frame drops, chaos verdicts).
	NodeTransport = scenario.NodeTransport
	// ShardsSpec turns a scenario into a sharded service deployment: S
	// shard clusters behind a key→shard router, anchored into one anchor
	// cluster (TetraBFTMulti only; both engines).
	ShardsSpec = scenario.ShardsSpec
	// ShardResult is one shard cluster's measurements in a sharded run.
	ShardResult = scenario.ShardResult
	// ShardRouter is the deterministic key→shard router the gateway and
	// the workload splitter share.
	ShardRouter = shard.Router
	// GatewayStatus is the sharded gateway's deployment snapshot
	// (GET /status).
	GatewayStatus = shard.Status
	// GatewayShardStatus is one shard's progress in a GatewayStatus.
	GatewayShardStatus = shard.ShardStatus
)

// Scenario protocols.
const (
	// ScenarioTetraBFT runs single-shot TetraBFT.
	ScenarioTetraBFT = scenario.TetraBFT
	// ScenarioTetraBFTMulti runs multi-shot, pipelined TetraBFT.
	ScenarioTetraBFTMulti = scenario.TetraBFTMulti
	// ScenarioITHotStuff runs the IT-HotStuff baseline.
	ScenarioITHotStuff = scenario.ITHotStuff
	// ScenarioITHotStuffBlog runs the non-responsive IT-HotStuff variant.
	ScenarioITHotStuffBlog = scenario.ITHotStuffBlog
	// ScenarioPBFT runs bounded-storage unauthenticated PBFT.
	ScenarioPBFT = scenario.PBFT
	// ScenarioPBFTUnbounded runs PBFT with its full message log.
	ScenarioPBFTUnbounded = scenario.PBFTUnbounded
	// ScenarioLiConsensus runs the Li et al. baseline.
	ScenarioLiConsensus = scenario.LiConsensus
	// ScenarioPBFTMulti chains single-shot PBFT instances through the
	// offered-load stream (the multishot PBFT baseline).
	ScenarioPBFTMulti = scenario.PBFTMulti
	// ScenarioITHotStuffMulti chains single-shot IT-HotStuff instances
	// through the offered-load stream.
	ScenarioITHotStuffMulti = scenario.ITHotStuffMulti
)

// Open-loop arrival processes for ArrivalSpec.Process.
const (
	// ArrivalPoisson draws exponential inter-arrivals (memoryless).
	ArrivalPoisson = workload.ProcessPoisson
	// ArrivalGamma draws gamma inter-arrivals (shape < 1 is bursty).
	ArrivalGamma = workload.ProcessGamma
	// ArrivalWeibull draws Weibull inter-arrivals.
	ArrivalWeibull = workload.ProcessWeibull
	// ArrivalConstant spaces arrivals uniformly at the mean rate.
	ArrivalConstant = workload.ProcessConstant
)

// ErrRateWithoutCount reports a workload that paces an offered-load stream
// (tx_rate or arrival) without bounding it (tx_count) — such a spec would
// silently offer nothing. tx_count always wins: it bounds the stream, the
// rate only paces it.
var ErrRateWithoutCount = scenario.ErrRateWithoutCount

// Scenario fault behaviors.
const (
	// FaultSilent crashes a node.
	FaultSilent = scenario.FaultSilent
	// FaultEquivocator splits the view-0 leader's proposal.
	FaultEquivocator = scenario.FaultEquivocator
	// FaultRandom replaces a node with the random fuzzer.
	FaultRandom = scenario.FaultRandom
	// FaultSuppressFinalPhase drops view 0's decision-completing phase.
	FaultSuppressFinalPhase = scenario.FaultSuppressFinalPhase
	// FaultSuppressProposals drops proposals below a view.
	FaultSuppressProposals = scenario.FaultSuppressProposals
	// FaultPartition drops cross-group messages during [From, To).
	FaultPartition = scenario.FaultPartition
	// FaultStarveDecision starves everyone but one node of the view-0
	// decision phase (the Lemma 8 cross-view setup).
	FaultStarveDecision = scenario.FaultStarveDecision
	// FaultForgedHistory replaces a node with the Lemma 8 Byzantine
	// leader pushing a conflicting value with a forged clean history.
	FaultForgedHistory = scenario.FaultForgedHistory
	// FaultCrashRestart hard-kills a TCP replica's process mid-run and
	// relaunches it from its write-ahead log (engine "tcp" only).
	FaultCrashRestart = scenario.FaultCrashRestart
)

// Deliberately broken protocol variants for adversarial harnesses (the
// scenario fuzzer's teeth); production specs use ScenarioMutationNone.
const (
	// ScenarioMutationNone runs the correct protocol.
	ScenarioMutationNone = scenario.MutationNone
	// ScenarioMutationSkipRule3 removes the Rule 3 safety check.
	ScenarioMutationSkipRule3 = scenario.MutationSkipRule3
	// ScenarioMutationNoPrevVote drops second-highest-vote tracking.
	ScenarioMutationNoPrevVote = scenario.MutationNoPrevVote
)

// RunScenario executes a declarative scenario and returns its result.
func RunScenario(sc Scenario) (*ScenarioResult, error) { return scenario.Run(sc) }

// RunScenarioWithGateway runs a sharded TCP scenario fronted by the HTTP
// gateway (submit/query/status over a 127.0.0.1 listener) and passes the
// gateway's base URL to onReady once the service accepts requests; the call
// then blocks until the run completes, exactly like RunScenario.
func RunScenarioWithGateway(sc Scenario, onReady func(url string)) (*ScenarioResult, error) {
	return scenario.RunWithGateway(sc, onReady)
}

// ParseScenario decodes and validates a JSON scenario spec (unknown fields
// are errors).
func ParseScenario(data []byte) (Scenario, error) { return scenario.Parse(data) }

// NamedScenarios returns the bundled, ready-to-run scenario library.
func NamedScenarios() []Scenario { return scenario.Named() }

// ScenarioByName returns the bundled scenario with the given name.
func ScenarioByName(name string) (Scenario, bool) { return scenario.ByName(name) }

// Experiment sweeps and scenario fuzzing: a Sweep crosses a base Scenario
// with axes into a grid, runs K seed replicates per cell in parallel
// (byte-identical at any core count), aggregates distribution statistics
// and checks declarative SLO assertions; Fuzz hunts for safety and
// liveness failures over random valid scenarios and shrinks findings to
// minimal reproducers. See package sweep and the EXPERIMENTS.md "Sweeps &
// fuzzing" section.
type (
	// Sweep is the declarative, JSON-serializable experiment grid.
	Sweep = sweep.Sweep
	// SweepAxis varies one scenario field across a list of values.
	SweepAxis = sweep.Axis
	// SweepResult is what a sweep run measured.
	SweepResult = sweep.Result
	// SweepCell is one grid cell's measurements.
	SweepCell = sweep.CellResult
	// SweepDist summarizes one metric across a cell's replicates.
	SweepDist = sweep.Dist
	// FuzzConfig declares the scenario fuzzer's sampling envelope.
	FuzzConfig = sweep.FuzzConfig
	// FuzzReport is what a fuzzing campaign produced.
	FuzzReport = sweep.FuzzReport
	// FuzzFailure is one finding, shrunk to a minimal reproducer.
	FuzzFailure = sweep.Failure
)

// RunSweep executes a sweep grid and returns its per-cell statistics and
// assertion verdict.
func RunSweep(sw Sweep) (*SweepResult, error) { return sweep.Run(sw) }

// ParseSweep decodes and validates a JSON sweep spec (unknown fields are
// errors).
func ParseSweep(data []byte) (Sweep, error) { return sweep.Parse(data) }

// NamedSweeps returns the bundled, ready-to-run sweep library.
func NamedSweeps() []Sweep { return sweep.Named() }

// SweepByName returns the bundled sweep with the given name.
func SweepByName(name string) (Sweep, bool) { return sweep.ByName(name) }

// FuzzScenarios runs a seeded fuzzing campaign: random valid scenarios,
// any failure shrunk to a minimal reproducing Scenario.
func FuzzScenarios(cfg FuzzConfig) (*FuzzReport, error) { return sweep.Fuzz(cfg) }

// Capacity planning: a CapacityPlan brackets and bisects to the knee — the
// highest offered rate (txs per 100 ticks) a base scenario sustains under
// declarative SLOs — probing each candidate rate as a replicated one-cell
// sweep. See internal/sweep/capacity.go and the EXPERIMENTS.md "Capacity
// planning" section.
type (
	// CapacityPlan is the declarative, JSON-serializable knee search.
	CapacityPlan = sweep.Capacity
	// CapacityResult is a capacity search's full record: every probe,
	// the knee, and the verdict ("tetrabft-capacity/v1").
	CapacityResult = sweep.CapacityResult
	// CapacityProbe is one probed rate and its one-cell measurement.
	CapacityProbe = sweep.ProbeResult
)

// RunCapacity executes a capacity plan's knee search.
func RunCapacity(cp CapacityPlan) (*CapacityResult, error) { return sweep.RunCapacity(cp) }

// ParseCapacityPlan decodes and validates a JSON capacity plan (unknown
// fields are errors).
func ParseCapacityPlan(data []byte) (CapacityPlan, error) { return sweep.ParseCapacity(data) }

// NamedCapacityPlans returns the bundled capacity plans.
func NamedCapacityPlans() []CapacityPlan { return sweep.NamedCapacity() }

// CapacityPlanByName returns the bundled capacity plan with the given name.
func CapacityPlanByName(name string) (CapacityPlan, bool) { return sweep.CapacityByName(name) }

// Tracing.
type (
	// TraceEvent is one protocol occurrence.
	TraceEvent = trace.Event
	// Tracer receives protocol events.
	Tracer = trace.Tracer
	// TraceLog collects events in memory.
	TraceLog = trace.Log
	// TraceWriter prints events to an io.Writer as they happen.
	TraceWriter = trace.Writer
)
