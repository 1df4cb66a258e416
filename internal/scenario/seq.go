package scenario

import (
	"fmt"

	"tetrabft/internal/blockchain"
	"tetrabft/internal/byz"
	"tetrabft/internal/ithotstuff"
	"tetrabft/internal/pbft"
	"tetrabft/internal/sim"
	"tetrabft/internal/types"
)

// runSeq drives the PBFT and IT-HotStuff baselines at offered load by
// chaining single-shot instances: global slot s is a fresh single-shot
// cluster whose shared proposal is the batch drained from the cluster's
// offered-load stream at the slot's start, and the decided batches fold into
// Result.Chain exactly as a multishot run would. Neither baseline has a
// native multi-shot mode (and IT-HotStuff repurposes the vote Slot field
// internally, so instances cannot be multiplexed inside one run); chaining
// whole runs on one virtual clock is the honest equivalent — every slot
// pays the protocol's full commit latency, which is precisely the
// difference the protocol shootout is measuring against the pipelined
// TetraBFT rows.
//
// The batch for slot s is drained once and proposed identically by
// whichever leader the view brings — modeling one shared mempool rather
// than competing per-leader pools — so a silent leader costs a view change
// but never loses transactions that were already proposed.
func runSeq(p *plan) (*Result, error) {
	w := p.sc.Workload
	c := p.clusters[0]
	load := p.offeredLoad()
	res := &Result{Name: p.sc.Name, FirstDecisionAt: -1, OfferedTxs: len(load.arrivals)}
	horizon := types.Time(p.sc.Stop.Horizon)
	n := len(c.members)
	sent := make(map[types.NodeID]int64, n)
	recv := make(map[types.NodeID]int64, n)
	commitAt := make(map[types.Slot]int64)
	var chain []types.Block
	var offset types.Time
	decided := types.Slot(0)

	for s := int64(0); s < w.Slots && offset < horizon; s++ {
		txs := load.drain(offset, p.batchSize())
		batch := make([]blockchain.Tx, len(txs))
		for i, tx := range txs {
			batch[i] = tx
		}
		payload := types.Value(blockchain.EncodePayload(batch))

		// A fresh simulator per slot: the seed folds in the slot so delay
		// draws differ across slots but the whole run stays a pure function
		// of (spec, seed).
		r := sim.New(sim.Config{
			Seed:  p.seed() + (s+1)<<20,
			Delay: buildDelay(p.sc.Network.Delay),
		})
		var reporters []storageReporter
		for _, id := range c.members {
			if c.byzByID[id] != nil {
				r.Add(byz.Silent{NodeID: id})
				continue
			}
			m, rep, err := buildSeqNode(p, id, n, payload)
			if err != nil {
				return nil, err
			}
			reporters = append(reporters, rep)
			r.Add(m)
		}
		honest := len(c.honest)
		if err := r.Run(horizon-offset, func() bool { return r.DecidedCount(0) >= honest }); err != nil {
			return res, fmt.Errorf("scenario %q slot %d: %w", p.sc.Name, s, err)
		}
		if err := r.AgreementViolation(); err != nil {
			return res, fmt.Errorf("scenario %q slot %d: %w", p.sc.Name, s, agreementError{err})
		}

		res.Events += r.Events()
		res.TotalSentBytes += r.TotalSentBytes()
		res.Dropped += r.DroppedMessages()
		for _, m := range c.members {
			sent[m] += r.SentBytes(m)
			recv[m] += r.RecvBytes(m)
		}
		for _, rep := range reporters {
			if b := rep.StorageBytes(); b > res.MaxStorageBytes {
				res.MaxStorageBytes = b
			}
			if v, ok := rep.(interface{ View() types.View }); ok {
				if vv := int64(v.View()); vv > res.MaxView {
					res.MaxView = vv
				}
			}
		}
		if r.DecidedCount(0) < honest {
			// Horizon exhausted mid-slot; the drained batch stays undecided
			// and shows up as backlog (OfferedTxs − DecidedTxs).
			offset = horizon
			break
		}

		earliest := int64(-1)
		for _, m := range c.honest {
			d, ok := r.Decision(m, 0)
			if !ok {
				continue
			}
			at := int64(offset) + int64(d.At)
			res.Decisions = append(res.Decisions, NodeDecision{Node: m, Slot: types.Slot(s), Value: d.Val, At: at})
			if earliest < 0 || at < earliest {
				earliest = at
			}
			if s == 0 && (res.FirstDecisionAt < 0 || at < res.FirstDecisionAt) {
				res.FirstDecisionAt = at
			}
		}
		commitAt[types.Slot(s)] = earliest
		// Txs is never nil here: an empty slot marshals as [], not null.
		chain = append(chain, types.Block{Slot: types.Slot(s), Payload: []byte(payload), Txs: append([][]byte{}, txs...)})
		decided++

		// Advance the shared clock by the sub-run's span. A zero-delay
		// regime can decide at t=0; count at least one tick per slot so the
		// clock (and the arrival gate) always moves.
		dt := r.Now()
		if dt == 0 {
			dt = 1
		}
		offset += dt
	}

	res.FinishedAt = int64(offset)
	res.DecidedCount = len(c.honest)
	if decided == 0 {
		res.DecidedCount = 0
	}
	for _, m := range c.members {
		res.Traffic = append(res.Traffic, NodeTraffic{Node: m, Sent: sent[m], Recv: recv[m]})
	}
	for _, m := range c.honest {
		res.Finalized = append(res.Finalized, NodeSlot{Node: m, Slot: decided})
	}
	res.txStats(chain, commitAt, load.arrivals)
	if p.sc.Collect.Chain {
		res.Chain = chain
	}
	return res, nil
}

// buildSeqNode constructs one honest single-shot baseline node proposing the
// slot's shared batch payload.
func buildSeqNode(p *plan, id types.NodeID, n int, payload types.Value) (types.Machine, storageReporter, error) {
	switch p.sc.Protocol {
	case PBFTMulti:
		node, err := pbft.NewNode(pbft.Config{
			ID: id, Nodes: n, InitialValue: payload, Delta: p.delta(),
		})
		return node, node, err
	case ITHotStuffMulti:
		node, err := ithotstuff.NewNode(ithotstuff.Config{
			ID: id, Nodes: n, Variant: ithotstuff.Full, InitialValue: payload, Delta: p.delta(),
		})
		return node, node, err
	}
	return nil, nil, fmt.Errorf("scenario: protocol %q is not a chained single-shot baseline", p.sc.Protocol)
}
