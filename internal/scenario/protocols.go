package scenario

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"tetrabft/internal/core"
	"tetrabft/internal/ithotstuff"
	"tetrabft/internal/liconsensus"
	"tetrabft/internal/pbft"
	"tetrabft/internal/quorum"
	"tetrabft/internal/trace"
	"tetrabft/internal/types"
)

// Protocol names a consensus protocol the scenario engine can run.
type Protocol string

// Runnable protocols, one row of the protocol table each.
const (
	// TetraBFT is single-shot TetraBFT (the paper's Section 3).
	TetraBFT Protocol = "tetrabft"
	// TetraBFTMulti is multi-shot, pipelined TetraBFT (Section 6).
	TetraBFTMulti Protocol = "tetrabft-multi"
	// ITHotStuff is the full IT-HotStuff baseline.
	ITHotStuff Protocol = "it-hotstuff"
	// ITHotStuffBlog is the non-responsive blog variant of IT-HotStuff.
	ITHotStuffBlog Protocol = "it-hotstuff-blog"
	// ITHotStuffMulti chains single-shot IT-HotStuff instances on one
	// virtual clock so the baseline consumes the offered-load stream:
	// every slot pays the full commit latency (no pipelining), which is
	// the throughput gap the protocol shootout measures against
	// TetraBFTMulti.
	ITHotStuffMulti Protocol = "it-hotstuff-multi"
	// PBFT is unauthenticated PBFT with bounded (checkpointed) storage.
	PBFT Protocol = "pbft"
	// PBFTUnbounded is PBFT retaining its full message log (Table 1's
	// unbounded-storage row).
	PBFTUnbounded Protocol = "pbft-unbounded"
	// PBFTMulti chains single-shot PBFT instances on one virtual clock —
	// the PBFT row of the offered-load protocol shootout.
	PBFTMulti Protocol = "pbft-multi"
	// LiConsensus is the Li et al. baseline.
	LiConsensus Protocol = "liconsensus"
)

// Descriptor is what a protocol is: one row of the protocol table. Lookup
// hands out copies, so nothing outside this package can change the table.
type Descriptor struct {
	Name  Protocol // the spec's protocol field
	Label string   // the row's name in the paper's Table 1 ("" off the table)
	// Multishot builds each node as a pipelined internal/multishot replica;
	// single builds a single-shot one; Chains names the single-shot
	// protocol a chained row runs once per slot instead.
	Multishot bool
	single    func(nodeConfig) (singleNode, error)
	Chains    Protocol
	// The capabilities: the engine, spec knobs and faults the row accepts.
	// StarveDecision: starve-decision drops its decision phase. Views:
	// timeout_factor scales its view timeout, and a faulty leader costs a
	// view change rather than liveness. byzantine lists the Byzantine node
	// faults whose messages the row's nodes read (see Byzantine).
	TCP, Slices, Shards, Mutations bool
	StarveDecision, Views          bool
	byzantine                      []FaultType
}

// byzantineFaults are the node faults that replace a node with an adversary
// speaking one row's dialect: single-shot TetraBFT's, today.
var byzantineFaults = []FaultType{FaultEquivocator, FaultRandom, FaultForgedHistory}

// Byzantine reports whether the row accepts Byzantine node fault t: one
// whose messages its honest nodes act on (TestByzantineFaultsMoveRuns).
func (d Descriptor) Byzantine(t FaultType) bool { return slices.Contains(d.byzantine, t) }

// nodeConfig is what a single-shot builder gets: one honest member of one
// cluster and the spec's knobs.
type nodeConfig struct {
	ID            types.NodeID
	Nodes         int
	Quorum        quorum.System // nil = the n ≥ 3f+1 threshold over Nodes
	InitialValue  types.Value
	Delta         types.Duration
	TimeoutFactor int
	Tracer        trace.Tracer // nil = untraced
	Mutation      Mutation
}

// singleNode is an honest single-shot node: a machine that reports its
// durable footprint and, on a row with views, a View.
type singleNode interface {
	types.Machine
	StorageBytes() int64
}

// table is every runnable protocol, in the order error texts list them.
// Adding a protocol is one row here plus its package.
var table = []Descriptor{
	{Name: TetraBFT, Label: "TetraBFT", single: coreNode, Slices: true, Mutations: true, StarveDecision: true, Views: true, byzantine: byzantineFaults},
	{Name: TetraBFTMulti, Multishot: true, TCP: true, Slices: true, Shards: true, Views: true},
	{Name: ITHotStuff, Label: "IT-HS", single: itHotStuffNode(ithotstuff.Full), Views: true},
	{Name: ITHotStuffBlog, Label: "IT-HS (blog)", single: itHotStuffNode(ithotstuff.Blog), Views: true},
	{Name: ITHotStuffMulti, Chains: ITHotStuff, Views: true},
	{Name: PBFT, Label: "PBFT (bounded)", single: pbftNode(false), StarveDecision: true, Views: true},
	{Name: PBFTUnbounded, Label: "PBFT (unbounded)", single: pbftNode(true), StarveDecision: true, Views: true},
	{Name: PBFTMulti, Chains: PBFT, Views: true},
	{Name: LiConsensus, Label: "Li et al.", single: liNode},
}

// Lookup returns the row of protocol p ("" is TetraBFT, the spec's
// default); ok is false for a name the table does not hold.
func Lookup(p Protocol) (d Descriptor, ok bool) {
	if p == "" {
		p = TetraBFT
	}
	for _, d := range table {
		if d.Name == p {
			return d, true
		}
	}
	return Descriptor{}, false
}

// rowNames lists the rows that have a capability, in table order, the way
// an error text reads them: protocol "a", or protocols "a", "b" and "c".
func rowNames(has func(Descriptor) bool) string {
	var names []string
	for _, d := range table {
		if has(d) {
			names = append(names, strconv.Quote(string(d.Name)))
		}
	}
	if len(names) == 1 {
		return "protocol " + names[0]
	}
	return "protocols " + strings.Join(names[:len(names)-1], ", ") + " and " + names[len(names)-1]
}

// multiSlot reports whether the row runs workload.slots slots, as a
// multishot replica or as a chain of single-shot runs.
func (d Descriptor) multiSlot() bool { return d.Multishot || d.Chains != "" }

// The progress rule: a row that runs slots has progressed once every honest
// node has finalized workload.slots, any other row once every honest node
// has decided slot 0. A sharded run has progressed once every shard has
// finalized workload.slots and committed at least one anchor epoch.
// allDecided is the flat rule as runSim's stop.all_decided predicate. It
// runs on every event, so on a multishot row it reads one count, the
// decisions of the target slot: only honest replicas decide, each one every
// slot once, in slot order, so they number the replicas that finalized it.
func (d Descriptor) allDecided(p *plan, cl *simCluster) func() bool {
	if d.multiSlot() {
		target := types.Slot(p.sc.Workload.Slots)
		return func() bool { return cl.record.decided(target) >= len(cl.chains) }
	}
	honest := len(cl.honest)
	return func() bool { return cl.r.DecidedCount(0) >= honest }
}

// Shortfall is the rule applied to res, a finished run of sc: "" when the
// run reached it, else which node or shard, or how many nodes, fell short
// and when.
func (d Descriptor) Shortfall(sc Scenario, res *Result) string {
	if sc.Shards != nil {
		for _, s := range res.Shards {
			if s.Finalized < sc.Workload.Slots {
				return fmt.Sprintf("shard %d finalized %d/%d slots by t=%d", s.Shard, s.Finalized, sc.Workload.Slots, res.FinishedAt)
			}
			if s.AnchorEpochs < 1 {
				return fmt.Sprintf("shard %d committed no anchor epoch by t=%d", s.Shard, res.FinishedAt)
			}
		}
		return ""
	}
	if d.multiSlot() {
		target := sc.Workload.Slots
		for _, f := range res.Finalized {
			if int64(f.Slot) < target {
				return fmt.Sprintf("node %d finalized %d/%d slots by t=%d", f.Node, f.Slot, target, res.FinishedAt)
			}
		}
		return ""
	}
	p, err := sc.compile()
	if err != nil {
		return err.Error()
	}
	if honest := len(p.clusters[0].honest); res.DecidedCount < honest {
		return fmt.Sprintf("%d/%d honest nodes decided by t=%d", res.DecidedCount, honest, res.FinishedAt)
	}
	return ""
}

// Single-shot builders.

func coreNode(c nodeConfig) (singleNode, error) {
	mutation := core.MutationNone
	switch c.Mutation {
	case MutationSkipRule3:
		mutation = core.MutationSkipRule3
	case MutationNoPrevVote:
		mutation = core.MutationNoPrevVote
	}
	return core.NewNode(core.Config{
		ID: c.ID, Quorum: c.Quorum, Nodes: c.Nodes, InitialValue: c.InitialValue,
		Delta: c.Delta, TimeoutFactor: c.TimeoutFactor, Tracer: c.Tracer, Mutation: mutation,
	})
}

func itHotStuffNode(variant ithotstuff.Variant) func(nodeConfig) (singleNode, error) {
	return func(c nodeConfig) (singleNode, error) {
		return ithotstuff.NewNode(ithotstuff.Config{
			ID: c.ID, Nodes: c.Nodes, Variant: variant, InitialValue: c.InitialValue,
			Delta: c.Delta, TimeoutFactor: c.TimeoutFactor,
		})
	}
}

func pbftNode(unbounded bool) func(nodeConfig) (singleNode, error) {
	return func(c nodeConfig) (singleNode, error) {
		return pbft.NewNode(pbft.Config{
			ID: c.ID, Nodes: c.Nodes, InitialValue: c.InitialValue,
			Delta: c.Delta, TimeoutFactor: c.TimeoutFactor, Unbounded: unbounded,
		})
	}
}

func liNode(c nodeConfig) (singleNode, error) {
	return liconsensus.NewNode(liconsensus.Config{ID: c.ID, Nodes: c.Nodes, Leader: 0, InitialValue: c.InitialValue})
}
