package scenario

import (
	"errors"
	"fmt"
	"sort"

	"tetrabft/internal/blockchain"
	"tetrabft/internal/byz"
	"tetrabft/internal/core"
	"tetrabft/internal/ithotstuff"
	"tetrabft/internal/liconsensus"
	"tetrabft/internal/multishot"
	"tetrabft/internal/obs"
	"tetrabft/internal/pbft"
	"tetrabft/internal/sim"
	"tetrabft/internal/trace"
	"tetrabft/internal/types"
)

// ErrAgreement tags agreement-violation errors: errors.Is(err,
// ErrAgreement) distinguishes a safety violation from an operational
// failure (bad spec, exhausted event budget, TCP timeout).
var ErrAgreement = errors.New("agreement violated")

// agreementError wraps a violation so callers can test for ErrAgreement
// without losing the detailed message.
type agreementError struct{ err error }

func (e agreementError) Error() string        { return e.err.Error() }
func (e agreementError) Unwrap() error        { return e.err }
func (e agreementError) Is(target error) bool { return target == ErrAgreement }

// Run executes the scenario and returns its result. An agreement violation,
// an exhausted event budget, or an invalid spec is an error. When the run
// itself failed (violation, exhausted budget) the measurements collected up
// to the failure — including any requested trace — are returned alongside
// the error, so the evidence of what went wrong is not lost.
func Run(sc Scenario) (*Result, error) {
	p, err := sc.compile()
	if err != nil {
		return nil, err
	}
	if sc.Shards != nil {
		if sc.Engine == EngineTCP {
			return runShardTCP(p, nil)
		}
		return runShardSim(p)
	}
	if sc.Engine == EngineTCP {
		return runTCP(p)
	}
	if p.seq {
		return runSeq(p)
	}
	return runSim(p)
}

// storageReporter is implemented by baseline nodes exposing their durable
// footprint.
type storageReporter interface {
	StorageBytes() int64
}

// cluster holds the probes the engine keeps on the machines it built.
type cluster struct {
	tetras    []*core.Node      // honest single-shot TetraBFT nodes
	chains    []*multishot.Node // honest multi-shot nodes, member order
	reporters []storageReporter // baseline nodes with a storage probe
	mempools  map[types.NodeID]*blockchain.Mempool
	load      *offered // cluster-shared offered-load stream (Workload.TxCount)
}

func runSim(p *plan) (*Result, error) {
	var log *trace.Log
	var tracer trace.Tracer
	if p.sc.Collect.Trace || p.sc.Collect.Stages {
		log = &trace.Log{}
		tracer = log
	}
	var reg *obs.Registry
	if p.sc.Collect.Metrics {
		reg = obs.NewRegistry()
	}

	r := sim.New(sim.Config{
		Seed:          p.seed(),
		Delay:         buildDelay(p.sc.Network.Delay),
		GST:           types.Time(p.sc.Network.GST),
		DropBeforeGST: p.sc.Network.DropBeforeGST,
		Adversary:     buildAdversary(p),
		EventBudget:   p.sc.Network.EventBudget,
		Metrics:       reg,
	})
	cl, err := buildCluster(p, r, tracer, reg)
	if err != nil {
		return nil, err
	}

	var stop func() bool
	if p.sc.Stop.AllDecided {
		if p.multi {
			target := types.Slot(p.sc.Workload.Slots)
			stop = func() bool {
				for _, node := range cl.chains {
					if node.FinalizedSlot() < target {
						return false
					}
				}
				return true
			}
		} else {
			honest := len(p.honest)
			stop = func() bool { return r.DecidedCount(0) >= honest }
		}
	}
	var runErr error
	if err := r.Run(types.Time(p.sc.Stop.Horizon), stop); err != nil {
		runErr = fmt.Errorf("scenario %q: %w", p.sc.Name, err)
	} else if err := r.AgreementViolation(); err != nil {
		runErr = fmt.Errorf("scenario %q: %w", p.sc.Name, agreementError{err})
	}

	res := &Result{
		Name:            p.sc.Name,
		FinishedAt:      int64(r.Now()),
		Events:          r.Events(),
		FirstDecisionAt: -1,
		DecidedCount:    r.DecidedCount(0),
		TotalSentBytes:  r.TotalSentBytes(),
		Dropped:         r.DroppedMessages(),
		OfferedTxs:      len(cl.load.arrivals),
	}
	decisions := r.Decisions()
	for _, m := range p.members {
		slots := make([]types.Slot, 0, len(decisions[m]))
		for s := range decisions[m] {
			slots = append(slots, s)
		}
		sort.Slice(slots, func(i, j int) bool { return slots[i] < slots[j] })
		for _, s := range slots {
			d := decisions[m][s]
			res.Decisions = append(res.Decisions, NodeDecision{Node: m, Slot: s, Value: d.Val, At: int64(d.At)})
			if s == 0 && (res.FirstDecisionAt < 0 || int64(d.At) < res.FirstDecisionAt) {
				res.FirstDecisionAt = int64(d.At)
			}
		}
		res.Traffic = append(res.Traffic, NodeTraffic{Node: m, Sent: r.SentBytes(m), Recv: r.RecvBytes(m)})
	}
	for _, node := range cl.chains {
		res.Finalized = append(res.Finalized, NodeSlot{Node: node.ID(), Slot: node.FinalizedSlot()})
	}
	for _, rep := range cl.reporters {
		if b := rep.StorageBytes(); b > res.MaxStorageBytes {
			res.MaxStorageBytes = b
		}
	}
	for _, node := range cl.tetras {
		if b := int64(node.Snapshot().PersistentSize()); b > res.MaxStorageBytes {
			res.MaxStorageBytes = b
		}
		if v := int64(node.View()); v > res.MaxView {
			res.MaxView = v
		}
	}
	if len(cl.chains) > 0 {
		chain := cl.chains[0].FinalizedChain()
		res.txStats(chain, earliestCommits(decisions, p.honest), cl.load.arrivals)
		if p.sc.Collect.Chain {
			res.Chain = chain
		}
	}
	if log != nil {
		events := log.Events()
		if p.sc.Collect.Trace {
			res.Trace = events
		}
		if p.sc.Collect.Stages {
			res.Stages = stageDists(stageSamples(events))
		}
	}
	if reg != nil {
		res.Metrics = reg.Snapshot()
	}
	if runErr != nil {
		return res, runErr
	}
	return res, nil
}

// buildCluster adds one machine per member, substituting Byzantine machines
// where the fault schedule says so. Machines are added in member order, so
// runs are reproducible across assembly sites.
func buildCluster(p *plan, r *sim.Runner, tracer trace.Tracer, reg *obs.Registry) (*cluster, error) {
	cl := &cluster{load: p.offeredLoad()}
	n := len(p.members)
	if len(p.sc.Workload.Transactions) > 0 || p.sc.Workload.TxsPerBlock > 0 {
		cl.mempools = make(map[types.NodeID]*blockchain.Mempool, len(p.honest))
	}
	for _, id := range p.members {
		if f := p.byzByID[id]; f != nil {
			r.Add(buildByz(p, f))
			continue
		}
		m, err := buildHonest(p, id, n, tracer, reg, cl)
		if err != nil {
			return nil, err
		}
		r.Add(m)
	}
	for _, tx := range p.sc.Workload.Transactions {
		mp := cl.mempools[tx.Node]
		if mp == nil {
			return nil, fmt.Errorf("scenario: transaction targets faulty node %d", tx.Node)
		}
		mp.Submit(buildTx(tx))
	}
	return cl, nil
}

func buildHonest(p *plan, id types.NodeID, n int, tracer trace.Tracer, reg *obs.Registry, cl *cluster) (types.Machine, error) {
	delta := p.delta()
	switch p.sc.Protocol {
	case "", TetraBFT:
		node, err := core.NewNode(core.Config{
			ID: id, Quorum: p.qs, Nodes: n, InitialValue: p.initialValue(id),
			Delta: delta, TimeoutFactor: p.sc.TimeoutFactor, Tracer: tracer,
			Mutation: buildMutation(p.sc.Mutation),
		})
		if err != nil {
			return nil, err
		}
		cl.tetras = append(cl.tetras, node)
		return node, nil
	case TetraBFTMulti:
		var payload func(types.Slot) []byte
		if cl.mempools != nil {
			mp := blockchain.NewMempool(0)
			cl.mempools[id] = mp
			per := p.sc.Workload.TxsPerBlock
			if per == 0 {
				per = 8
			}
			payload = mp.PayloadSource(per)
		}
		node, err := multishot.NewNode(multishot.Config{
			ID: id, Quorum: p.qs, Nodes: n, Delta: delta,
			TimeoutFactor: p.sc.TimeoutFactor, MaxSlot: p.maxSlot,
			Window:  p.sc.Workload.Window,
			Payload: payload, Batch: cl.load.batchSource(p.batchSize()),
			Tracer: tracer, Metrics: reg,
		})
		if err != nil {
			return nil, err
		}
		cl.chains = append(cl.chains, node)
		return node, nil
	case ITHotStuff, ITHotStuffBlog:
		variant := ithotstuff.Full
		if p.sc.Protocol == ITHotStuffBlog {
			variant = ithotstuff.Blog
		}
		node, err := ithotstuff.NewNode(ithotstuff.Config{
			ID: id, Nodes: n, Variant: variant, InitialValue: p.initialValue(id), Delta: delta,
		})
		if err != nil {
			return nil, err
		}
		cl.reporters = append(cl.reporters, node)
		return node, nil
	case PBFT, PBFTUnbounded:
		node, err := pbft.NewNode(pbft.Config{
			ID: id, Nodes: n, InitialValue: p.initialValue(id), Delta: delta,
			Unbounded: p.sc.Protocol == PBFTUnbounded,
		})
		if err != nil {
			return nil, err
		}
		cl.reporters = append(cl.reporters, node)
		return node, nil
	case LiConsensus:
		node, err := liconsensus.NewNode(liconsensus.Config{
			ID: id, Nodes: n, Leader: 0, InitialValue: p.initialValue(id),
		})
		if err != nil {
			return nil, err
		}
		cl.reporters = append(cl.reporters, node)
		return node, nil
	}
	return nil, fmt.Errorf("scenario: unknown protocol %q", p.sc.Protocol)
}

// buildMutation maps the spec's mutation name onto the core knob.
func buildMutation(m Mutation) core.Mutation {
	switch m {
	case MutationSkipRule3:
		return core.MutationSkipRule3
	case MutationNoPrevVote:
		return core.MutationNoPrevVote
	}
	return core.MutationNone
}

func buildByz(p *plan, f *FaultSpec) types.Machine {
	switch f.Type {
	case FaultEquivocator:
		peers := make([]types.NodeID, 0, len(p.members)-1)
		for _, m := range p.members {
			if m != f.Node {
				peers = append(peers, m)
			}
		}
		valA, valB := f.ValueA, f.ValueB
		if valA == "" {
			valA = "byz-a"
		}
		if valB == "" {
			valB = "byz-b"
		}
		return byz.Equivocator{NodeID: f.Node, Peers: peers, ValA: types.Value(valA), ValB: types.Value(valB)}
	case FaultRandom:
		seed := f.Seed
		if seed == 0 {
			seed = p.seed()
		}
		return &byz.Random{
			NodeID: f.Node, Seed: seed, Burst: f.Burst, Budget: f.Budget,
			MaxView: types.View(f.MaxView),
		}
	case FaultForgedHistory:
		v := types.View(f.View)
		if v == 0 {
			v = 1
		}
		val := f.ValueA
		if val == "" {
			val = "byz-b"
		}
		// The Lemma 8 leader: echo the view change so the new view starts,
		// then answer the first proof with a conflicting proposal, a forged
		// clean history and a full set of votes for it.
		return &byz.Scripted{
			NodeID: f.Node,
			React: map[types.Kind][]types.Message{
				types.KindViewChange: {types.ViewChange{View: v}},
				types.KindProof: {
					types.Proposal{View: v, Val: types.Value(val)},
					types.ProofMsg{View: v}, // forged: claims no vote history
					types.VoteMsg{Phase: 1, View: v, Val: types.Value(val)},
					types.VoteMsg{Phase: 2, View: v, Val: types.Value(val)},
					types.VoteMsg{Phase: 3, View: v, Val: types.Value(val)},
					types.VoteMsg{Phase: 4, View: v, Val: types.Value(val)},
				},
			},
		}
	default: // FaultSilent
		return byz.Silent{NodeID: f.Node}
	}
}

func buildTx(tx TxSpec) blockchain.Tx {
	if tx.Op == "del" {
		return blockchain.DelTx(tx.Key)
	}
	return blockchain.SetTx(tx.Key, tx.Value)
}

func buildDelay(d *DelaySpec) sim.DelayModel {
	if d == nil {
		return nil // sim default: constant 1
	}
	switch d.Model {
	case DelayUniform:
		return sim.UniformDelay{Min: types.Duration(d.Min), Max: types.Duration(d.Max)}
	case DelayPerLink:
		links := make(map[[2]types.NodeID]types.Duration, len(d.Links))
		for _, l := range d.Links {
			links[[2]types.NodeID{l.From, l.To}] = types.Duration(l.D)
		}
		return sim.PerLinkDelay{Default: types.Duration(d.Default), Links: links}
	default: // DelayConstant
		return sim.ConstantDelay{D: types.Duration(d.D)}
	}
}

func buildAdversary(p *plan) sim.Adversary {
	advs := make([]sim.Adversary, 0, len(p.netwk))
	for _, f := range p.netwk {
		switch f.Type {
		case FaultSuppressFinalPhase:
			advs = append(advs, suppressFinalPhase{})
		case FaultStarveDecision:
			advs = append(advs, starveDecision{spare: f.Node, until: types.Time(f.To)})
		case FaultSuppressProposals:
			advs = append(advs, suppressProposals{below: types.View(f.BelowView)})
		case FaultPartition:
			advs = append(advs, &sim.Partition{
				Groups: f.Groups, From: types.Time(f.From), To: types.Time(f.To),
			})
		}
	}
	switch len(advs) {
	case 0:
		return nil
	case 1:
		return advs[0]
	}
	return chainAdversary(advs)
}

// chainAdversary applies adversaries in schedule order: the first Drop
// wins, a Replace feeds the replacement to later adversaries, and extra
// delays accumulate.
type chainAdversary []sim.Adversary

// Intercept implements sim.Adversary.
func (c chainAdversary) Intercept(from, to types.NodeID, msg types.Message, now types.Time) sim.Verdict {
	var out sim.Verdict
	for _, a := range c {
		v := a.Intercept(from, to, msg, now)
		if v.Drop {
			return sim.Verdict{Drop: true}
		}
		if v.Replace != nil {
			out.Replace = v.Replace
			msg = v.Replace
		}
		out.ExtraDelay += v.ExtraDelay
	}
	return out
}

// suppressFinalPhase drops the decision-completing phase of view 0 in both
// TetraBFT (vote-4) and PBFT (commit), so nodes reach the prepared state
// and the subsequent view change carries maximal evidence.
type suppressFinalPhase struct{}

// Intercept implements sim.Adversary.
func (suppressFinalPhase) Intercept(_, _ types.NodeID, msg types.Message, _ types.Time) sim.Verdict {
	switch m := msg.(type) {
	case types.VoteMsg:
		if m.Phase == 4 && m.View == 0 {
			return sim.Verdict{Drop: true}
		}
	case types.GenericVote:
		if m.Proto == types.ProtoPBFT && m.Phase == 3 && m.View == 0 { // commit
			return sim.Verdict{Drop: true}
		}
	}
	return sim.Verdict{}
}

// starveDecision drops the decision-completing phase of view 0 for every
// receiver except one node, optionally only before a deadline: exactly one
// node decides in view 0 while the rest are forced through a view change —
// the Lemma 8 cross-view safety setup.
type starveDecision struct {
	spare types.NodeID
	until types.Time // 0 = no deadline
}

// Intercept implements sim.Adversary.
func (s starveDecision) Intercept(_, to types.NodeID, msg types.Message, now types.Time) sim.Verdict {
	if to == s.spare || (s.until > 0 && now >= s.until) {
		return sim.Verdict{}
	}
	switch m := msg.(type) {
	case types.VoteMsg:
		if m.Phase == 4 && m.View == 0 {
			return sim.Verdict{Drop: true}
		}
	case types.GenericVote:
		if m.Proto == types.ProtoPBFT && m.Phase == 3 && m.View == 0 { // commit
			return sim.Verdict{Drop: true}
		}
	}
	return sim.Verdict{}
}

// suppressProposals drops every proposal-ish message below a view, forcing
// repeated view changes in all protocols.
type suppressProposals struct {
	below types.View
}

// Intercept implements sim.Adversary.
func (s suppressProposals) Intercept(_, _ types.NodeID, msg types.Message, _ types.Time) sim.Verdict {
	switch m := msg.(type) {
	case types.Proposal:
		if m.View < s.below {
			return sim.Verdict{Drop: true}
		}
	case types.GenericVote:
		// Phase 1 is the proposal phase for IT-HS (propose) and PBFT
		// (pre-prepare).
		if m.Phase == 1 && m.View < s.below {
			return sim.Verdict{Drop: true}
		}
	case types.Evidence:
		// PBFT new-view messages carry the proposal; dropping them below
		// the target view keeps the leader change churning.
		if m.Phase == 7 && m.View < s.below {
			return sim.Verdict{Drop: true}
		}
	}
	return sim.Verdict{}
}
