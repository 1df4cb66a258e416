package scenario

import (
	"cmp"
	"errors"
	"fmt"

	"tetrabft/internal/blockchain"
	"tetrabft/internal/byz"
	"tetrabft/internal/multishot"
	"tetrabft/internal/obs"
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
// the error, so the evidence of what went wrong is not lost. A chained row
// runs slot by slot (runSeq); any other plan, flat or sharded, runs on its
// engine's one runner, runSim or runTCP.
func Run(sc Scenario) (*Result, error) {
	p, err := sc.compile()
	if err != nil {
		return nil, err
	}
	if p.proto.Chains != "" {
		return runSeq(p)
	}
	if sc.Engine == EngineTCP {
		return runTCP(p, nil)
	}
	return runSim(p)
}

// A simCluster is one cluster of a run on the simulator — the flat run's
// only cluster, or one shard or the anchor cluster of a sharded run — and
// keeps the simulator's half of the contract tcpCluster keeps over TCP
// (tcp.go). newSimCluster builds it: one runner seeded with the cluster's
// seed, one machine per member in member order, a Byzantine machine where
// the plan replaces one, every honest multi-shot replica drawing batches
// from the one source the runner hands in and keeping its finalized blocks
// in the one chain of the cluster. The runner advances it to a virtual
// instant t (r.Run); minFinalized and the record read its progress between
// instants; fold, once the run is over, checks agreement and sums the
// cluster up into the foldInput the TCP cluster's fold returns too.
type simCluster struct {
	*cluster
	r         *sim.Runner
	log       *trace.Log        // nil = untraced
	record    commitRecord      // a multi-shot row's decisions; a single-shot row's stay in r
	chain     *multishot.Chain  // the finalized chain every honest multi-shot node shares
	chains    []*multishot.Node // honest multi-shot nodes, member order
	reporters []singleNode      // honest single-shot nodes
}

func newSimCluster(p *plan, c *cluster, batch func(types.Slot, types.Time) [][]byte, log *trace.Log, reg *obs.Registry) (*simCluster, error) {
	cfg := sim.Config{
		Seed:          c.seed,
		Delay:         buildDelay(p.sc.Network.Delay),
		GST:           types.Time(p.sc.Network.GST),
		DropBeforeGST: p.sc.Network.DropBeforeGST,
		Adversary:     buildAdversary(p),
		EventBudget:   p.sc.Network.EventBudget,
		Metrics:       reg,
	}
	cl := &simCluster{cluster: c, log: log}
	if p.proto.Multishot {
		cfg.OnDecide, cl.chain = cl.record.decide, multishot.NewChain(c.maxSlot)
	}
	cl.r = sim.New(cfg)
	for _, id := range c.members {
		if f := c.byzByID[id]; f != nil {
			cl.r.Add(buildByz(c, f))
			continue
		}
		m, err := cl.buildHonest(p, id, batch, reg)
		if err != nil {
			return nil, err
		}
		cl.r.Add(m)
	}
	return cl, nil
}

// minFinalized is the finalized slot every honest replica has reached.
func (cl *simCluster) minFinalized() (low int64) {
	for i, node := range cl.chains {
		if s := int64(node.FinalizedSlot()); i == 0 || s < low {
			low = s
		}
	}
	return low
}

// fold checks the cluster's agreement and sums it up: the reference chain,
// each slot's earliest commit, the slot every honest replica has finalized
// and, when traced, the stage samples. A violation comes back labelled with
// the scenario and cluster names.
func (cl *simCluster) fold(p *plan) (foldInput, error) {
	in := foldInput{finalized: cl.minFinalized(), commits: &cl.record}
	if cl.log != nil {
		in.stages = stageSamples(cl.log.Events())
	}
	err := cl.record.err
	if len(cl.chains) > 0 {
		in.chain = cl.chains[0].FinalizedChain() // the first honest replica's prefix of the cluster's chain
	} else {
		err = cl.r.AgreementViolation() // a single-shot row's decisions stay in the runner
	}
	if err != nil {
		return in, p.fail(cl.cluster, agreementError{err})
	}
	return in, nil
}

// traced is log as a node's tracer: nil, not a nil *trace.Log, when the
// cluster is untraced, so nodes skip building the events.
func traced(log *trace.Log) trace.Tracer {
	if log == nil {
		return nil
	}
	return log
}

// runSim drives every cluster of the plan on the simulator, each on a
// runner of its own and all on one goroutine, while the offered load is
// generated beside them. A sharded plan advances them in lockstep quanta of
// shards.anchor_interval ticks: every runner to the same instant t, then
// each cluster's applied log to its first honest replica's chain, the
// anchoring round at t and the completion check, and the run finishes
// at the last quantum boundary. A flat plan's one cluster runs one quantum,
// the whole horizon, ended early by stop.all_decided, and finishes at its
// runner's clock.
func runSim(p *plan) (*Result, error) {
	var reg *obs.Registry
	if p.sc.Collect.Metrics {
		reg = obs.NewRegistry()
	}
	dep := newDeployment(p)
	defer dep.stream.Close()
	clusters := make([]*simCluster, len(p.clusters))
	for i, c := range p.clusters {
		batch, log := dep.feed(i)
		cl, err := newSimCluster(p, c, batch, log, reg)
		if err != nil {
			return nil, err
		}
		clusters[i] = cl
	}

	horizon := types.Time(p.sc.Stop.Horizon)
	quantum := horizon
	var stop func() bool
	if dep.anchored() {
		quantum = types.Time(p.sc.Shards.anchorInterval())
	} else if p.sc.Stop.AllDecided {
		stop = p.proto.allDecided(p, clusters[0])
	}
	var t types.Time
	var runErr error
loop:
	for {
		t = min(t+quantum, horizon)
		for _, cl := range clusters {
			if err := cl.r.Run(t, stop); err != nil {
				runErr = fmt.Errorf("scenario %q: %w", p.sc.Name, err)
				break loop
			}
		}
		if dep.anchored() {
			for i, cl := range clusters {
				dep.logs[i].extend(cl.chains[0].FinalizedChain())
			}
			dep.round(t)
			if dep.done(func(i int) int64 { return clusters[i].minFinalized() }) {
				break
			}
		}
		if t >= horizon {
			break
		}
	}

	res := &Result{Name: p.sc.Name, FinishedAt: int64(t), FirstDecisionAt: -1}
	if !dep.anchored() {
		clusters[0].report(p, res)
	}
	inputs := make([]foldInput, len(clusters))
	for i, cl := range clusters {
		in, err := cl.fold(p)
		if runErr == nil {
			runErr = err
		}
		inputs[i] = in
		res.Events += cl.r.Events()
		res.TotalSentBytes += cl.r.TotalSentBytes()
		res.Dropped += cl.r.DroppedMessages()
	}
	return res, dep.fold(res, inputs, reg, runErr)
}

// report adds a flat run's per-node fields to res: its finish time on the
// runner's clock, a single-shot row's decisions, the latest decision, the
// traffic, finalized slots, single-shot storage and views, and the trace.
func (cl *simCluster) report(p *plan, res *Result) {
	r := cl.r
	res.FinishedAt = int64(r.Now())
	res.DecidedCount, res.LastDecisionAt = r.DecidedCount(0), cl.record.last
	for _, m := range cl.members {
		if d, ok := r.Decision(m, 0); ok {
			res.Decisions = append(res.Decisions, NodeDecision{Node: m, Value: d.Val, At: int64(d.At)})
			if res.FirstDecisionAt < 0 || int64(d.At) < res.FirstDecisionAt {
				res.FirstDecisionAt = int64(d.At)
			}
			res.LastDecisionAt = max(res.LastDecisionAt, int64(d.At))
		}
		res.Traffic = append(res.Traffic, NodeTraffic{Node: m, Sent: r.SentBytes(m), Recv: r.RecvBytes(m)})
	}
	for _, node := range cl.chains {
		res.Finalized = append(res.Finalized, NodeSlot{Node: node.ID(), Slot: node.FinalizedSlot()})
	}
	for _, rep := range cl.reporters {
		res.MaxStorageBytes = max(res.MaxStorageBytes, rep.StorageBytes())
		if v, ok := rep.(interface{ View() types.View }); ok {
			res.MaxView = max(res.MaxView, int64(v.View()))
		}
	}
	if p.sc.Collect.Trace {
		res.Trace = cl.log.Events()
	}
}

func (cl *simCluster) buildHonest(p *plan, id types.NodeID, batch func(types.Slot, types.Time) [][]byte, reg *obs.Registry) (types.Machine, error) {
	if !p.proto.Multishot {
		node, err := p.proto.single(nodeConfig{
			ID: id, Nodes: len(cl.members), Quorum: cl.qs, InitialValue: p.initialValue(id),
			Delta: p.delta(), TimeoutFactor: p.sc.TimeoutFactor, Tracer: traced(cl.log),
			Mutation: p.sc.Mutation,
		})
		if err != nil {
			return nil, err
		}
		cl.reporters = append(cl.reporters, node)
		return node, nil
	}
	var payload func(types.Slot) []byte
	if txs := p.sc.Workload.Transactions; len(txs) > 0 {
		mp := blockchain.NewMempool(0)
		for _, tx := range txs {
			if tx.Node == id {
				mp.Submit(buildTx(tx))
			}
		}
		payload = mp.PayloadSource(txsPerBlock)
	}
	chain, err := multishot.NewNode(multishot.Config{
		ID: id, Quorum: cl.qs, Nodes: len(cl.members), Delta: p.delta(),
		TimeoutFactor: p.sc.TimeoutFactor, MaxSlot: cl.maxSlot,
		Window: p.sc.Workload.Window, Chain: cl.chain,
		Payload: payload, Batch: batch,
		Tracer: traced(cl.log), Metrics: reg,
	})
	if err != nil {
		return nil, err
	}
	cl.chains = append(cl.chains, chain)
	return chain, nil
}

func buildByz(c *cluster, f *FaultSpec) types.Machine {
	switch f.Type {
	case FaultEquivocator:
		peers := make([]types.NodeID, 0, len(c.members)-1)
		for _, m := range c.members {
			if m != f.Node {
				peers = append(peers, m)
			}
		}
		valA, valB := cmp.Or(f.ValueA, "byz-a"), cmp.Or(f.ValueB, "byz-b")
		return byz.Equivocator{NodeID: f.Node, Peers: peers, ValA: types.Value(valA), ValB: types.Value(valB)}
	case FaultRandom:
		return &byz.Random{
			NodeID: f.Node, Seed: cmp.Or(f.Seed, c.seed), Burst: f.Burst, Budget: f.Budget,
			MaxView: types.View(f.MaxView),
		}
	case FaultForgedHistory:
		v, val := cmp.Or(types.View(f.View), 1), cmp.Or(f.ValueA, "byz-b")
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
			advs = append(advs, finalPhaseDrop{})
		case FaultStarveDecision:
			advs = append(advs, finalPhaseDrop{spare: &f.Node, until: types.Time(f.To)})
		case FaultSuppressProposals:
			advs = append(advs, suppressProposals{below: types.View(f.BelowView)})
		case FaultPartition:
			advs = append(advs, partitionOf(f))
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

// partitionOf is the simulator's partition for a partition fault.
func partitionOf(f FaultSpec) *sim.Partition {
	return &sim.Partition{Groups: f.Groups, From: types.Time(f.From), To: types.Time(f.To)}
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

// finalPhaseDrop drops the decision-completing phase of view 0 — TetraBFT
// vote-4, PBFT commit — for every receiver except spare, and only before
// until. Without a spare or a deadline (suppress-final-phase) nodes reach the
// prepared state and the view change carries maximal evidence; sparing one
// node (starve-decision) lets exactly it decide in view 0 while the rest are
// forced through a view change — the Lemma 8 cross-view safety setup.
type finalPhaseDrop struct {
	spare *types.NodeID // nil = no node is spared
	until types.Time    // 0 = no deadline
}

// Intercept implements sim.Adversary.
func (d finalPhaseDrop) Intercept(_, to types.NodeID, msg types.Message, now types.Time) sim.Verdict {
	if (d.spare != nil && to == *d.spare) || (d.until > 0 && now >= d.until) {
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
